package dist

// Op identifies one of the grid's metered communication patterns: the
// five collectives (bcast, gather, allgather, allreduce, alltoall) and
// OpGemm, the GEMM communication lower bound of GemmComm. Collectives
// are modeled in-process: ranks are goroutines over shared memory, and
// each op is charged its alpha-beta cost on the machine model.
type Op uint8

const (
	OpBcast Op = iota
	OpGather
	OpAllgather
	OpAllreduce
	OpAllToAll
	OpGemm
	NumOps
)

var opNames = [NumOps]string{"bcast", "gather", "allgather", "allreduce", "alltoall", "gemm"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}
