package obs

import (
	"bytes"
	"runtime"
	"strconv"
)

// curGoID returns the current goroutine's id, parsed from the
// "goroutine N [status]:" header runtime.Stack writes. The runtime does
// not expose goids on purpose — they must never drive program logic —
// but for observability they are exactly what we need: a stable key for
// per-goroutine span stacks, so spans started on worker goroutines nest
// under the task span bound to that goroutine instead of racing a global
// stack. The parse costs on the order of a microsecond and runs only
// while collection is enabled, on span starts and binds (never on the
// disabled fast path).
func curGoID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, goroutinePrefix)
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

var goroutinePrefix = []byte("goroutine ")
