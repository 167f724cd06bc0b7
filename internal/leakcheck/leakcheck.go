// Package leakcheck fails a test binary when a goroutine its tests
// started outlives them.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits with their status. When they pass, it
// waits up to two seconds for every goroutine whose stack mentions match
// to exit, and fails the binary with the stacks of those still running.
// The goroutine running TestMain itself is never counted.
func Main(m *testing.M, match string) {
	code := m.Run()
	if code == 0 {
		if leaked := leaked(match, 2*time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leaked waits up to grace for the goroutines whose stacks mention match
// to exit, and returns the stacks of those still running.
func leaked(match string, grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var out []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, match) && !strings.Contains(g, ".TestMain(") {
				out = append(out, g)
			}
		}
		if len(out) == 0 || time.Now().After(deadline) {
			return strings.Join(out, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
