package server

import (
	"testing"

	"skandium/internal/leakcheck"
)

// TestMain fails the package when a goroutine running code of this module
// outlives the run: Close must stop the arbiter's ticker and every job,
// and the tests must close every server, journal and cluster they open.
func TestMain(m *testing.M) { leakcheck.Main(m, "skandium") }
