package remote

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium"
	"skandium/internal/leakcheck"
)

// The test blueprints every process sharing this binary registers: the
// coordinator side and the re-exec'd worker processes resolve the same
// names, which is exactly the registry-as-code-distribution contract.
func init() {
	skandium.RegisterBlueprint(testGridBlueprint())
	skandium.RegisterBlueprint(testNestedBlueprint())
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        "remotetest-gate",
		Description: "farm(map) of cells that wait for the gate in cellGate",
		Remote:      skandium.JSONCodec[gridCell, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			fs := skandium.NewSplit("cells", func(n int) ([]gridCell, error) { return make([]gridCell, n), nil })
			fe := skandium.NewExec("wait", func(gridCell) (int, error) { <-*cellGate.Load(); return 0, nil })
			fm := skandium.NewMerge("sum", func([]int) (int, error) { return 0, nil })
			return skandium.NewRunner(skandium.Farm(skandium.Map(fs, skandium.Seq(fe), fm)), p.Int("n", 2)), nil
		},
	})
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        "remotetest-failing",
		Description: "a grid whose cells always fail",
		Remote:      skandium.JSONCodec[gridCell, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			fs := skandium.NewSplit("cells", func(total int) ([]gridCell, error) {
				return make([]gridCell, total), nil
			})
			fe := skandium.NewExec("boom", func(c gridCell) (int, error) {
				return 0, fmt.Errorf("cell exploded")
			})
			fm := skandium.NewMerge("sum", func(parts []int) (int, error) { return 0, nil })
			return skandium.NewRunner(skandium.Map(fs, skandium.Seq(fe), fm), p.Int("n", 4)), nil
		},
	})
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        "remotetest-local",
		Description: "a blueprint with no remote codec: never cluster-eligible",
		Build: func(p skandium.Params) (skandium.Runner, error) {
			fe := skandium.NewExec("id", func(n int) (int, error) { return n, nil })
			return skandium.NewRunner(skandium.Seq(fe), 1), nil
		},
	})
}

// cellGate holds the cells of remotetest-gate until a test closes the
// channel it points at.
var cellGate atomic.Pointer[chan struct{}]

// gridCell is one shard of the remotetest grid; it crosses the wire as
// JSON, so the codec restores the concrete type on the worker.
type gridCell struct {
	N       int
	SleepMS int
}

// testGridBlueprint is a farm of a map: split n cells, each sleeping
// sleep_ms and returning its index squared, merged by summation. The farm
// wrap makes it the acceptance criterion's "farm job"; Shardable sees
// through the wrap to the fan-out.
func testGridBlueprint() skandium.Blueprint {
	return skandium.Blueprint{
		Name:        "remotetest-grid",
		Description: "farm(map) of sleeping square cells, for cluster tests",
		Defaults:    skandium.Params{"n": 8, "sleep_ms": 0},
		Remote:      skandium.JSONCodec[gridCell, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			n := p.Int("n", 8)
			sleep := p.Int("sleep_ms", 0)
			if n < 1 {
				return nil, fmt.Errorf("remotetest-grid: n must be >= 1")
			}
			fs := skandium.NewSplit("cells", func(total int) ([]gridCell, error) {
				out := make([]gridCell, total)
				for i := range out {
					out[i] = gridCell{N: i, SleepMS: sleep}
				}
				return out, nil
			})
			fe := skandium.NewExec("square", func(c gridCell) (int, error) {
				if c.SleepMS > 0 {
					time.Sleep(time.Duration(c.SleepMS) * time.Millisecond)
				}
				return c.N * c.N, nil
			})
			fm := skandium.NewMerge("sum", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			program := skandium.Farm(skandium.Map(fs, skandium.Seq(fe), fm))
			return skandium.NewRunner(program, n), nil
		},
	}
}

// gridRow is one shard of the remotetest nested grid: m cells, numbered
// from Row·m, that the worker splits again and runs on its own pool.
type gridRow struct {
	Row, M  int
	SleepMS int
}

// cellSpan records when the cells of the in-process workers ran: the first
// start and the last end since reset. A test reads it as the stretch of a
// job during which its shards were certainly being dispatched.
var cellSpan struct {
	sync.Mutex
	first, last time.Time
}

func resetCellSpan() {
	cellSpan.Lock()
	cellSpan.first, cellSpan.last = time.Time{}, time.Time{}
	cellSpan.Unlock()
}

func noteCell(start, end time.Time) {
	cellSpan.Lock()
	if cellSpan.first.IsZero() || start.Before(cellSpan.first) {
		cellSpan.first = start
	}
	if end.After(cellSpan.last) {
		cellSpan.last = end
	}
	cellSpan.Unlock()
}

// testNestedBlueprint is a two-level map, the shape of the daemon's
// sleepgrid: k rows of m cells, each sleeping sleep_ms and returning its
// global index squared. The coordinator shards the rows; each worker runs a
// row's cells in parallel on its pool, so a row's speed follows the node's
// grant.
func testNestedBlueprint() skandium.Blueprint {
	return skandium.Blueprint{
		Name:        "remotetest-nested",
		Description: "map(map) of sleeping square cells, k rows of m, for cluster tests",
		Defaults:    skandium.Params{"k": 4, "m": 4, "sleep_ms": 0},
		Remote:      skandium.JSONCodec[gridRow, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			k, m := p.Int("k", 4), p.Int("m", 4)
			sleep := p.Int("sleep_ms", 0)
			if k < 1 || m < 1 {
				return nil, fmt.Errorf("remotetest-nested: k and m must be >= 1")
			}
			rows := skandium.NewSplit("rows", func(total int) ([]gridRow, error) {
				out := make([]gridRow, total/m)
				for i := range out {
					out[i] = gridRow{Row: i, M: m, SleepMS: sleep}
				}
				return out, nil
			})
			cells := skandium.NewSplit("cells", func(r gridRow) ([]gridCell, error) {
				out := make([]gridCell, r.M)
				for i := range out {
					out[i] = gridCell{N: r.Row*r.M + i, SleepMS: r.SleepMS}
				}
				return out, nil
			})
			fe := skandium.NewExec("square", func(c gridCell) (int, error) {
				start := time.Now()
				if c.SleepMS > 0 {
					time.Sleep(time.Duration(c.SleepMS) * time.Millisecond)
				}
				noteCell(start, time.Now())
				return c.N * c.N, nil
			})
			sum := skandium.NewMerge("sum", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			inner := skandium.Map(cells, skandium.Seq(fe), sum)
			return skandium.NewRunner(skandium.Map(rows, inner, sum), k*m), nil
		},
	}
}

// gridSum is the expected result of an n-cell grid: Σ i² for i in [0,n).
func gridSum(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

// TestMain doubles as the worker-process entry point: the acceptance test
// re-execs this binary with SKELWORKER_TEST_ADDR set, turning the child
// into a skelworker serving the shared registry (the same trick the
// daemon's crash-recovery tests use for SIGKILL targets). As the test
// binary, it fails the package when a goroutine running code of this
// module outlives the run: Close must stop every cluster's probe loop and
// supervisor and every worker's pool.
func TestMain(m *testing.M) {
	if addr := os.Getenv("SKELWORKER_TEST_ADDR"); addr != "" {
		w := NewWorker(WorkerConfig{LP: 2, MaxLP: 4})
		log.Printf("test worker on %s", addr)
		if err := http.ListenAndServe(addr, w.Handler()); err != nil {
			log.Fatal(err)
		}
		return
	}
	leakcheck.Main(m, "skandium")
}
