// Rank liveness registry: the driver-side federation point for child
// rank processes. The socket transport (internal/dist/net) registers
// every spawned rank, heartbeats it on each successful sync ping or
// collective ack, and marks it dead when its monitor reaps the process
// — so the parent's /healthz answers "are all my ranks alive" (503 on a
// dead rank) without scraping the children. Unlike the obs series
// registry this is not gated on obs.Enabled: liveness must be current
// the moment a listener attaches.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// RankHealth is one rank's liveness entry in the /healthz rollup.
type RankHealth struct {
	Rank int  `json:"rank"`
	Up   bool `json:"up"`
	// LastHeartbeatAgeSeconds is the age of the newest heartbeat
	// (sync ping or collective ack) at snapshot time.
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
	// Err is the monitor's reason when the rank is down.
	Err string `json:"err,omitempty"`
}

var rankReg struct {
	mu sync.Mutex
	m  map[int]*rankState
}

type rankState struct {
	up   bool
	last time.Time
	err  string
}

// RankHeartbeat records that rank is alive right now, registering it on
// first call.
func RankHeartbeat(rank int) {
	rankReg.mu.Lock()
	defer rankReg.mu.Unlock()
	if rankReg.m == nil {
		rankReg.m = map[int]*rankState{}
	}
	st := rankReg.m[rank]
	if st == nil {
		st = &rankState{}
		rankReg.m[rank] = st
	}
	st.up = true
	st.last = time.Now()
	st.err = ""
}

// MarkRankDead records that rank's process is gone; msg is the
// monitor's reason ("rank 2 died: signal: killed"). The entry stays
// down until ResetRanks.
func MarkRankDead(rank int, msg string) {
	rankReg.mu.Lock()
	defer rankReg.mu.Unlock()
	if rankReg.m == nil {
		rankReg.m = map[int]*rankState{}
	}
	st := rankReg.m[rank]
	if st == nil {
		st = &rankState{}
		rankReg.m[rank] = st
	}
	st.up = false
	st.err = msg
}

// ResetRanks clears the registry (a transport closing cleanly, or test
// isolation). Called from Reset.
func ResetRanks() {
	rankReg.mu.Lock()
	rankReg.m = nil
	rankReg.mu.Unlock()
}

// RankHealths snapshots the registry sorted by rank; nil when no ranks
// were ever registered (single-process run).
func RankHealths() []RankHealth {
	rankReg.mu.Lock()
	defer rankReg.mu.Unlock()
	if len(rankReg.m) == 0 {
		return nil
	}
	now := time.Now()
	out := make([]RankHealth, 0, len(rankReg.m))
	for r, st := range rankReg.m {
		h := RankHealth{Rank: r, Up: st.up, Err: st.err}
		if !st.last.IsZero() {
			h.LastHeartbeatAgeSeconds = now.Sub(st.last).Seconds()
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}
