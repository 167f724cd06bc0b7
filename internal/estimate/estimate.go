// Package estimate implements the paper's history-based estimation of
// muscle behaviour: the execution time t(m) of every muscle and the
// cardinality |m| of Split and Condition muscles ("the best predictor of the
// future behaviour is past behaviour", §4).
//
// The paper's base formula is an exponentially weighted moving average:
//
//	newEstimatedVal = ρ·lastActualVal + (1-ρ)·previousEstimatedVal
//
// with ρ ∈ [0,1] defaulting to 0.5. ρ close to 0 follows the stable
// tendency (slow adaptation); ρ close to 1 reacts to the latest measure.
package estimate

import "fmt"

// EWMA is the paper's ρ-weighted estimator of one scalar quantity.
type EWMA struct {
	rho  float64
	val  float64
	ok   bool
	seen int
}

// NewEWMA returns an EWMA estimator with the given ρ. It panics if ρ is
// outside [0,1].
func NewEWMA(rho float64) *EWMA {
	checkRho(rho)
	return &EWMA{rho: rho}
}

func checkRho(rho float64) {
	if rho < 0 || rho > 1 {
		panic(fmt.Sprintf("estimate: ρ=%v outside [0,1]", rho))
	}
}

// DefaultRho is the paper's default ρ: the estimate is the average of the
// last actual value and the previous estimate.
const DefaultRho = 0.5

// Observe feeds one actual measurement.
func (e *EWMA) Observe(v float64) {
	e.seen++
	if !e.ok {
		e.val, e.ok = v, true
		return
	}
	e.val = e.rho*v + (1-e.rho)*e.val
}

// Init seeds the estimate without consuming an observation slot; the
// paper's "initialization of estimation functions" (scenario 2) uses this
// to start from a previous run's final values.
func (e *EWMA) Init(v float64) { e.val, e.ok = v, true }

// Value returns the current estimate; ok is false until the estimator has
// been observed or initialized.
func (e *EWMA) Value() (float64, bool) { return e.val, e.ok }

// Observations returns how many actual measurements were consumed.
func (e *EWMA) Observations() int { return e.seen }
