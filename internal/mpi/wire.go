package mpi

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
)

// Payload wire encoding. In-process, a message's payload travels by
// reference; across a TCP transport it must be serialized. Three kinds
// cover the runtime's own traffic — nil (the common case: benchmarks
// ship shape, not data), uint64 (reductions, ID broadcasts: at the top
// level it decodes into the message's scalar slot), and
// []gatherPair (the gather collectives' structural accumulator, encoded
// recursively). Everything else goes through a registered PayloadCodec:
// the runtime cannot import the packages whose values ride on it
// (trace nodes, cluster items — they import mpi), so glue code outside
// this package registers codecs for them (see internal/fleet).
//
// Layout (all integers unsigned varints):
//
//	payload := kind rest
//	kind 0 (nil):     —
//	kind 1 (uint64):  value
//	kind 2 (pairs):   n, then n × (rank, payload)
//	kind 3 (codec):   len(name), name, len(data), data
//	kind 4 (list):    n, then n × payload
const (
	payloadNil    = 0
	payloadU64    = 1
	payloadPairs  = 2
	payloadCodec  = 3
	payloadList   = 4
	maxCodecName  = 256
	maxPairCount  = 1 << 20
	maxPairsDepth = 4
)

// PayloadCodec teaches the TCP transport to carry one concrete payload
// type across process boundaries. Encode receives a value of exactly
// the registered type; Decode must return the same concrete type.
type PayloadCodec struct {
	// Name identifies the codec on the wire; both sides of a fleet must
	// register the same names (same binary ⇒ always true).
	Name string
	// Zero is a value of the concrete Go type the codec handles.
	Zero any
	// Encode serializes a value of the registered type.
	Encode func(v any) ([]byte, error)
	// Decode reverses Encode. data is only valid during the call — it
	// is the transport's read buffer, overwritten by the next frame —
	// so the returned value must not alias it.
	Decode func(data []byte) (any, error)
}

var wireReg = struct {
	mu     sync.RWMutex
	byName map[string]*PayloadCodec
	byType map[reflect.Type]*PayloadCodec
}{
	byName: map[string]*PayloadCodec{},
	byType: map[reflect.Type]*PayloadCodec{},
}

// RegisterPayloadCodec installs a codec for cross-process payloads.
// Registering the same name twice replaces the previous codec (so
// package-level init registration stays idempotent under test re-runs).
func RegisterPayloadCodec(c PayloadCodec) {
	if c.Name == "" || len(c.Name) > maxCodecName {
		panic(fmt.Sprintf("mpi: invalid payload codec name %q", c.Name))
	}
	if c.Zero == nil || c.Encode == nil || c.Decode == nil {
		panic(fmt.Sprintf("mpi: payload codec %q incomplete", c.Name))
	}
	t := reflect.TypeOf(c.Zero)
	wireReg.mu.Lock()
	defer wireReg.mu.Unlock()
	if prev, ok := wireReg.byType[t]; ok && prev.Name != c.Name {
		panic(fmt.Sprintf("mpi: payload type %v already registered as %q", t, prev.Name))
	}
	cp := c
	wireReg.byName[c.Name] = &cp
	wireReg.byType[t] = &cp
}

// LookupPayloadCodec returns the codec registered under name.
func LookupPayloadCodec(name string) (PayloadCodec, bool) {
	wireReg.mu.RLock()
	defer wireReg.mu.RUnlock()
	c, ok := wireReg.byName[name]
	if !ok {
		return PayloadCodec{}, false
	}
	return *c, true
}

// jsonPayloadCodec builds a PayloadCodec backed by encoding/json for a
// concrete type T.
func jsonPayloadCodec[T any](name string) PayloadCodec {
	return PayloadCodec{
		Name: name,
		Zero: *new(T),
		Encode: func(v any) ([]byte, error) {
			return json.Marshal(v.(T))
		},
		Decode: func(data []byte) (any, error) {
			var out T
			if err := json.Unmarshal(data, &out); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

func init() {
	// The runtime's own cross-process payload types. Application and
	// tracing-layer types (trace nodes, cluster items) register from
	// internal/fleet, which may import them.
	RegisterPayloadCodec(jsonPayloadCodec[int]("mpi.int"))
	RegisterPayloadCodec(jsonPayloadCodec[string]("mpi.string"))
	RegisterPayloadCodec(jsonPayloadCodec[[]int]("mpi.ints"))
	RegisterPayloadCodec(jsonPayloadCodec[splitEntry]("mpi.splitEntry"))
	RegisterPayloadCodec(jsonPayloadCodec[map[int][]int]("mpi.splitLayout"))
}

// appendValue serializes msg's value onto dst. The scalar slot encodes
// as a kind-1 payload, byte for byte what a boxed uint64 encodes to, so
// the wire cannot tell the two apart.
func appendValue(dst []byte, msg *message) ([]byte, error) {
	if msg.scalar {
		return appendU64(dst, msg.u64), nil
	}
	return appendPayload(dst, msg.payload, 0)
}

// decodeValue deserializes a message's value into msg and returns the
// unconsumed remainder. A top-level uint64 lands in the scalar slot,
// unboxed; anything else (a uint64 nested in a list or gather pair
// included) lands in payload.
func decodeValue(b []byte, msg *message) ([]byte, error) {
	if len(b) > 0 && b[0] == payloadU64 {
		v, rest, err := decodeU64(b[1:])
		msg.u64, msg.scalar = v, true
		return rest, err
	}
	v, rest, err := decodePayload(b, 0)
	msg.payload = v
	return rest, err
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(append(dst, payloadU64), v)
}

// decodeU64 parses the value of a kind-1 payload (b starts past the
// kind byte).
func decodeU64(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("mpi: bad uint64 payload")
	}
	return v, b[n:], nil
}

// appendPayload serializes v onto dst.
func appendPayload(dst []byte, v any, depth int) ([]byte, error) {
	if depth > maxPairsDepth {
		return nil, fmt.Errorf("mpi: payload nesting exceeds %d", maxPairsDepth)
	}
	switch pv := v.(type) {
	case nil:
		return append(dst, payloadNil), nil
	case uint64:
		return appendU64(dst, pv), nil
	case []gatherPair:
		if len(pv) > maxPairCount {
			return nil, fmt.Errorf("mpi: gather payload of %d pairs exceeds cap", len(pv))
		}
		dst = append(dst, payloadPairs)
		dst = binary.AppendUvarint(dst, uint64(len(pv)))
		var err error
		for i := range pv {
			if pv[i].Rank < 0 {
				return nil, fmt.Errorf("mpi: negative gather rank %d", pv[i].Rank)
			}
			dst = binary.AppendUvarint(dst, uint64(pv[i].Rank))
			if dst, err = appendPayload(dst, pv[i].Obj, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case []any:
		// Gather results rebroadcast by Allgather/Allgatherv and Scatter
		// inputs: a heterogeneous list, encoded element-recursively.
		if len(pv) > maxPairCount {
			return nil, fmt.Errorf("mpi: list payload of %d elements exceeds cap", len(pv))
		}
		dst = append(dst, payloadList)
		dst = binary.AppendUvarint(dst, uint64(len(pv)))
		var err error
		for i := range pv {
			if dst, err = appendPayload(dst, pv[i], depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	t := reflect.TypeOf(v)
	wireReg.mu.RLock()
	c := wireReg.byType[t]
	wireReg.mu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("mpi: payload type %T has no wire codec; register one with mpi.RegisterPayloadCodec", v)
	}
	data, err := c.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("mpi: encode payload %T via %q: %w", v, c.Name, err)
	}
	dst = append(dst, payloadCodec)
	dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
	dst = append(dst, c.Name...)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	return append(dst, data...), nil
}

// decodePayload deserializes one payload from b, returning the value
// and the unconsumed remainder. Every length is bounds-checked against
// the buffer so a poisoned frame cannot drive allocation beyond its own
// size. The value shares no memory with b: the reader reuses b for the
// next frame while the value sits in a mailbox.
func decodePayload(b []byte, depth int) (any, []byte, error) {
	if depth > maxPairsDepth {
		return nil, nil, fmt.Errorf("mpi: payload nesting exceeds %d", maxPairsDepth)
	}
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("mpi: truncated payload")
	}
	kind := b[0]
	b = b[1:]
	switch kind {
	case payloadNil:
		return nil, b, nil
	case payloadU64:
		v, rest, err := decodeU64(b)
		if err != nil {
			return nil, nil, err
		}
		return v, rest, nil
	case payloadPairs:
		count, n := binary.Uvarint(b)
		if n <= 0 || count > maxPairCount || count > uint64(len(b)) {
			return nil, nil, fmt.Errorf("mpi: bad gather pair count")
		}
		b = b[n:]
		pairs := make([]gatherPair, 0, count)
		for i := uint64(0); i < count; i++ {
			rank, n := binary.Uvarint(b)
			if n <= 0 || rank > 1<<31 {
				return nil, nil, fmt.Errorf("mpi: bad gather rank")
			}
			b = b[n:]
			obj, rest, err := decodePayload(b, depth+1)
			if err != nil {
				return nil, nil, err
			}
			b = rest
			pairs = append(pairs, gatherPair{Rank: int(rank), Obj: obj})
		}
		return pairs, b, nil
	case payloadList:
		count, n := binary.Uvarint(b)
		if n <= 0 || count > maxPairCount || count > uint64(len(b)) {
			return nil, nil, fmt.Errorf("mpi: bad list payload count")
		}
		b = b[n:]
		list := make([]any, 0, count)
		for i := uint64(0); i < count; i++ {
			el, rest, err := decodePayload(b, depth+1)
			if err != nil {
				return nil, nil, err
			}
			b = rest
			list = append(list, el)
		}
		return list, b, nil
	case payloadCodec:
		nameLen, n := binary.Uvarint(b)
		if n <= 0 || nameLen == 0 || nameLen > maxCodecName || nameLen > uint64(len(b)-n) {
			return nil, nil, fmt.Errorf("mpi: bad codec name length")
		}
		b = b[n:]
		name := b[:nameLen]
		b = b[nameLen:]
		dataLen, n := binary.Uvarint(b)
		if n <= 0 || dataLen > uint64(len(b)-n) {
			return nil, nil, fmt.Errorf("mpi: bad codec data length")
		}
		b = b[n:]
		data := b[:dataLen]
		b = b[dataLen:]
		wireReg.mu.RLock()
		c := wireReg.byName[string(name)] // no copy: a map index by converted bytes
		wireReg.mu.RUnlock()
		if c == nil {
			return nil, nil, fmt.Errorf("mpi: unknown payload codec %q", name)
		}
		v, err := c.Decode(data)
		if err != nil {
			return nil, nil, fmt.Errorf("mpi: decode payload via %q: %w", name, err)
		}
		return v, b, nil
	}
	return nil, nil, fmt.Errorf("mpi: unknown payload kind %d", kind)
}
