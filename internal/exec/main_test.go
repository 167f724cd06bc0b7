package exec

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine started by its code or its
// tests outlives the run: pools must stop their workers on Close, and test
// helpers must not park helpers of their own behind a test's back.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(2 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to grace for every goroutine running code of
// this package to exit, and returns the stacks of those still running.
func leakedGoroutines(grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var leaked []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "skandium/internal/exec.") && !strings.Contains(g, "exec.TestMain(") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
