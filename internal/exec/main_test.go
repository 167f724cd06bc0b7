package exec

import (
	"testing"

	"skandium/internal/leakcheck"
)

// TestMain fails the package when a goroutine started by its code or its
// tests outlives the run: pools must stop their workers on Close, and test
// helpers must not park helpers of their own behind a test's back.
func TestMain(m *testing.M) { leakcheck.Main(m, "skandium/internal/exec.") }
