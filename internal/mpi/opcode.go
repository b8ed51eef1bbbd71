package mpi

// OpCode identifies an MPI operation at the interposition layer and in
// trace events.
type OpCode uint8

// MPI operations supported by the simulated runtime.
const (
	OpNone OpCode = iota
	OpSend
	OpRecv
	OpIsend
	OpIrecv
	OpWait
	OpSendrecv
	OpBarrier
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpAllgather
	OpScatter
	OpAlltoall
	OpFinalize
	numOpCodes
)

var opNames = [...]string{
	"none", "Send", "Recv", "Isend", "Irecv", "Wait", "Sendrecv",
	"Barrier", "Bcast", "Reduce", "Allreduce", "Gather", "Allgather",
	"Scatter", "Alltoall", "Finalize",
}

func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// IsCollective reports whether the operation involves the whole
// communicator group.
func (o OpCode) IsCollective() bool {
	switch o {
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather,
		OpAllgather, OpScatter, OpAlltoall, OpFinalize:
		return true
	}
	return false
}

// IsPointToPoint reports whether the operation has a single peer.
func (o OpCode) IsPointToPoint() bool {
	switch o {
	case OpSend, OpRecv, OpIsend, OpIrecv, OpSendrecv:
		return true
	}
	return false
}
