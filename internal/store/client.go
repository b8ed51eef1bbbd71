package store

// HTTP client helpers: the CLI tools accept `http(s)://` run references
// wherever they accept a trace path, and chamrun -push uploads the
// merged online trace to a chamd archive after Finalize.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/httpx"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// httpClient rides the process's one transport (httpx.Transport), whose
// transparent gzip is off so transfer byte counts are observable;
// decompression is explicit in fetch.
var httpClient = httpx.Client(60 * time.Second)

// clientTenant is the tenant every client helper stamps on its
// requests (the CLI tools' -tenant flag). Empty means the server-side
// default tenant.
var clientTenant string

// SetTenant namespaces all subsequent client-helper requests from this
// process under the named tenant.
func SetTenant(tenant string) { clientTenant = tenant }

// call issues one client request, the process tenant attached, and
// decodes its answer. A non-nil body is sent with contentType; useGzip
// compresses it (Content-Encoding) or, on a bodyless request, asks for a
// compressed answer (Accept-Encoding), handed back as received. Any 2xx
// is success: out may be nil (body dropped), a *[]byte (body verbatim),
// or a JSON target. The returned response is for its status and
// headers; its body is already closed.
func call(method, url string, body []byte, contentType string, useGzip bool, out any) (*http.Response, error) {
	if body != nil {
		if useGzip {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(body); err != nil {
				return nil, err
			}
			if err := zw.Close(); err != nil {
				return nil, err
			}
			body = buf.Bytes()
		}
	}
	req, err := httpx.NewRequest(method, url, body, nil)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	switch {
	case useGzip && body != nil:
		req.Header.Set("Content-Encoding", "gzip")
	case useGzip:
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if clientTenant != "" {
		req.Header.Set(mesh.HeaderTenant, clientTenant)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		if *out, err = readReply(resp.Body, resp.ContentLength, nil); err != nil {
			return resp, fmt.Errorf("%s %s: %w", method, url, err)
		}
	default:
		if err := readJSON(resp.Body, resp.ContentLength, out); err != nil {
			return resp, fmt.Errorf("%s %s: decode response: %w", method, url, err)
		}
	}
	return resp, nil
}

// replyBufs holds the buffers JSON replies are read into. A buffer that
// grew past maxBodyPresize for one large reply is not kept.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// readJSON reads one JSON reply whole into a pooled buffer and
// unmarshals it into out; length is the body's Content-Length (-1:
// unknown). Unmarshalling copies what it keeps, so the buffer goes back
// to the pool.
func readJSON(body io.Reader, length int64, out any) error {
	bp := replyBufs.Get().(*[]byte)
	b, err := readReply(body, length, (*bp)[:0])
	if err == nil {
		err = json.Unmarshal(b, out)
	}
	if cap(b) <= maxBodyPresize {
		*bp = b[:0]
		replyBufs.Put(bp)
	}
	return err
}

// readReply appends a reply body to b and returns it. A stated length
// sizes b up front, so a body that keeps its word is read without
// growing b; the length is the peer's claim, so the up-front size is
// capped at maxBodyPresize, and a body that does not match it is an
// error, not a shorter reply. With no length (-1) b grows as the body
// arrives.
func readReply(body io.Reader, length int64, b []byte) ([]byte, error) {
	start := len(b)
	if length > 0 {
		b = slices.Grow(b, int(min(length, maxBodyPresize)))
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return b, err
		}
	}
	if got := int64(len(b) - start); length >= 0 && got != length {
		return b, fmt.Errorf("body of %d bytes, %d claimed", got, length)
	}
	return b, nil
}

// getJSON GETs a URL and decodes its JSON answer into out.
func getJSON(url string, out any) error {
	_, err := call(http.MethodGet, url, nil, "", false, out)
	return err
}

// IsRef reports whether the trace reference is an HTTP(S) URL rather
// than a local path.
func IsRef(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// TransferStats describes one HTTP trace fetch: bytes moved on the
// wire vs. the decoded payload size (they differ under gzip transfer).
type TransferStats struct {
	WireBytes int64
	RawBytes  int64
	Gzip      bool
}

func (t TransferStats) String() string {
	if t.Gzip {
		return fmt.Sprintf("%d B gzip on the wire, %d B raw", t.WireBytes, t.RawBytes)
	}
	return fmt.Sprintf("%d B on the wire", t.WireBytes)
}

// FetchBytes GETs a run reference and returns the decoded payload plus
// transfer statistics.
func FetchBytes(url string) ([]byte, TransferStats, error) {
	var wire []byte
	resp, err := call(http.MethodGet, url, nil, "", true, &wire)
	if err != nil {
		return nil, TransferStats{}, err
	}
	stats := TransferStats{WireBytes: int64(len(wire))}
	payload := wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		stats.Gzip = true
		zr, err := gzip.NewReader(bytes.NewReader(wire))
		if err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
		payload, err = io.ReadAll(zr)
		if err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
		if err := zr.Close(); err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
	}
	stats.RawBytes = int64(len(payload))
	return payload, stats, nil
}

// LoadTraceStats resolves a trace reference — a local path or an
// http(s):// run URL — into a decoded trace file. The stats pointer is
// non-nil exactly for remote fetches.
func LoadTraceStats(ref string) (*trace.File, *TransferStats, error) {
	if !IsRef(ref) {
		f, err := trace.LoadAny(ref)
		return f, nil, err
	}
	payload, stats, err := FetchBytes(ref)
	if err != nil {
		return nil, nil, err
	}
	f, err := trace.DecodeAny(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ref, err)
	}
	return f, &stats, nil
}

// LoadTrace resolves a trace reference (local path or http(s):// run
// URL) into a decoded trace file.
func LoadTrace(ref string) (*trace.File, error) {
	f, _, err := LoadTraceStats(ref)
	return f, err
}

// OpenRef opens a reference as a byte stream: a local file, or the
// body of an HTTP GET (journals, edge files, Chrome traces).
func OpenRef(ref string) (io.ReadCloser, error) {
	if !IsRef(ref) {
		return os.Open(ref)
	}
	payload, _, err := FetchBytes(ref)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(payload)), nil
}

// FetchStats GETs a run's compressed-domain analysis report from a
// chamd archive: base is the archive root, id a run reference (full
// content address or unique prefix). The report is computed server-side
// without expanding the stored trace.
func FetchStats(base, id string) (StatsResponse, error) {
	var out StatsResponse
	err := getJSON(strings.TrimSuffix(base, "/")+"/runs/"+id+"/stats", &out)
	return out, err
}

// FetchWaves requests the server-side idle-wave report over a run's
// edge sidecar. A positive cols asks the server to treat ranks as a
// row-major cols-wide grid (?cols= query param).
func FetchWaves(base, id string, cols int) (WavesResponse, error) {
	url := strings.TrimSuffix(base, "/") + "/runs/" + id + "/waves"
	if cols > 0 {
		url += fmt.Sprintf("?cols=%d", cols)
	}
	var out WavesResponse
	err := getJSON(url, &out)
	return out, err
}

// FetchEdges downloads a run's causal edge sidecar.
func FetchEdges(base, id string) ([]obs.Edge, error) {
	var jsonl []byte
	if _, err := call(http.MethodGet, strings.TrimSuffix(base, "/")+"/runs/"+id+"/edges", nil, "", false, &jsonl); err != nil {
		return nil, err
	}
	return obs.ReadEdges(bytes.NewReader(jsonl))
}

// PushEdges attaches a causal edge sidecar (JSONL bytes, the format
// obs.WriteEdges produces) to an already-pushed run.
func PushEdges(base, id string, jsonl []byte, useGzip bool) error {
	url := strings.TrimSuffix(base, "/") + "/runs/" + id + "/edges"
	_, err := call(http.MethodPut, url, jsonl, "application/x-ndjson", useGzip, nil)
	return err
}

// Push uploads a trace to a chamd archive rooted at base (e.g.
// "http://host:8321"; a trailing "/runs" is accepted too). It returns
// the server's manifest record and whether the run was new to the
// archive (false = content-address dedup).
func Push(base string, f *trace.File, useGzip bool) (Run, bool, error) {
	payload, _, err := Encode(f)
	if err != nil {
		return Run{}, false, err
	}
	return PushBytes(base, payload, useGzip)
}

// PushBytes uploads an already-serialized trace payload.
func PushBytes(base string, payload []byte, useGzip bool) (Run, bool, error) {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasSuffix(url, "/runs") {
		url += "/runs"
	}
	var run Run
	resp, err := call(http.MethodPut, url, payload, "application/octet-stream", useGzip, &run)
	if err != nil {
		return Run{}, false, err
	}
	return run, resp.StatusCode == http.StatusCreated, nil
}

// FetchRuns lists a chamd archive's runs. query is the raw filter
// string ("benchmark=lulesh&p=64"), without limit/offset; those come
// from the offset parameter and the server's page size. The returned
// ListResponse carries Next when more pages remain.
func FetchRuns(base, query string, limit, offset int) (ListResponse, error) {
	u := strings.TrimSuffix(base, "/") + "/runs"
	sep := "?"
	if query != "" {
		u += sep + query
		sep = "&"
	}
	if limit > 0 {
		u += fmt.Sprintf("%slimit=%d", sep, limit)
		sep = "&"
	}
	if offset > 0 {
		u += fmt.Sprintf("%soffset=%d", sep, offset)
	}
	var out ListResponse
	err := getJSON(u, &out)
	out.Runs = slices.DeleteFunc(out.Runs, func(r *Run) bool { return r == nil })
	return out, err
}

// RegisterCQ registers (or replaces) a continuous query on a chamd
// archive and returns the stored spec.
func RegisterCQ(base string, spec cq.Spec) (cq.Spec, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return cq.Spec{}, err
	}
	var out cq.Spec
	_, err = call(http.MethodPut, strings.TrimSuffix(base, "/")+"/cq", body, "application/json", false, &out)
	return out, err
}

// FetchCQs lists the tenant's registered continuous queries.
func FetchCQs(base string) ([]cq.Spec, error) {
	var out []cq.Spec
	err := getJSON(strings.TrimSuffix(base, "/")+"/cq", &out)
	return out, err
}

// DeleteCQ drops a registered continuous query by name.
func DeleteCQ(base, name string) error {
	_, err := call(http.MethodDelete, strings.TrimSuffix(base, "/")+"/cq/"+name, nil, "", false, nil)
	return err
}

// FetchCQFeed fetches the tenant's continuous-query event feed.
func FetchCQFeed(base string) (cq.FeedView, error) {
	var out cq.FeedView
	err := getJSON(strings.TrimSuffix(base, "/")+"/cq/events", &out)
	return out, err
}

// WatchCQFeed long-polls the tenant's CQ feed until its version
// exceeds after or timeout elapses server-side.
func WatchCQFeed(base string, after uint64, timeout time.Duration) (cq.FeedView, error) {
	var out cq.FeedView
	err := getJSON(fmt.Sprintf("%s/cq/events?version=%d&timeout=%s",
		strings.TrimSuffix(base, "/"), after, timeout), &out)
	return out, err
}

// FetchMeshStatus fetches a peer's federation identity and per-tenant
// usage.
func FetchMeshStatus(base string) (MeshStatus, error) {
	var out MeshStatus
	err := getJSON(strings.TrimSuffix(base, "/")+"/mesh/status", &out)
	return out, err
}

// TriggerSweep asks a peer to run one anti-entropy pass now and
// returns its report.
func TriggerSweep(base string) (mesh.SweepReport, error) {
	var out sweepResult
	if _, err := call(http.MethodPost, strings.TrimSuffix(base, "/")+"/mesh/sweep", nil, "", false, &out); err != nil {
		return mesh.SweepReport{}, err
	}
	if out.Error != "" {
		return out.SweepReport, fmt.Errorf("sweep: %s", out.Error)
	}
	return out.SweepReport, nil
}
