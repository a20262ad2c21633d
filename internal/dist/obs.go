package dist

import (
	"gokoala/internal/obs"
)

// Bridge from the grid's alpha-beta-gamma accounting into the obs
// metrics layer: every metered collective and flop credit also advances
// the global dist.* counters (no-ops while obs is disabled).
// The dist.* counters are deterministic: functions of the machine model
// and the metered operation counts.
var (
	obsCommMsgs  = obs.NewCounter("dist.comm.msgs")
	obsCommBytes = obs.NewCounter("dist.comm.bytes")
	obsRedists   = obs.NewCounter("dist.redistributions")
	obsCommSecs  = obs.NewFloatCounter("dist.modeled.comm_seconds")
	obsCompSecs  = obs.NewFloatCounter("dist.modeled.comp_seconds")

	// Per-collective modeled seconds, indexed by Op; the names feed the
	// collectives table of koala-obs report.
	obsModeledOp [NumOps]*obs.FloatCounter
)

func init() {
	for op := Op(0); op < NumOps; op++ {
		obsModeledOp[op] = obs.NewFloatCounter("dist.modeled." + op.String() + "_seconds")
	}
}

// observeComm mirrors one addComm call into the obs counters. Called
// with the grid mutex held so the published samples advance in the same
// order as the grid counters they describe (see addComm).
func observeComm(op Op, msgs, bytes int64, secs float64, redists int64) {
	if !obs.Enabled() {
		return
	}
	obsCommMsgs.Add(msgs)
	obsCommBytes.Add(bytes)
	obsCommSecs.Add(secs)
	obsModeledOp[op].Add(secs)
	if redists != 0 {
		obsRedists.Add(redists)
	}
}

// observeComp mirrors modeled compute seconds into the obs counters.
func observeComp(secs float64) {
	if !obs.Enabled() {
		return
	}
	obsCompSecs.Add(secs)
}
