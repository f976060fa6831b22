package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ccatscale/internal/audit"
	"ccatscale/internal/budget"
	"ccatscale/internal/sim"
)

// RunError is the structured failure record of the run supervisor.
// Every invariant panic inside the simulation stack and every watchdog
// stop is converted into one of these, carrying enough context — seed,
// full config snapshot, virtual time, event count — to replay the
// failing run. It is JSON-serializable: the shared attempt parks it as
// <key>.failed.json beside the store, and `reproduce -replay` runs the
// recorded config again.
type RunError struct {
	// Reason classifies the failure: "panic", "invariant violation",
	// "wall-clock limit exceeded", or "virtual-time stall".
	Reason string `json:"reason"`
	// Seed is the run's RNG seed.
	Seed uint64 `json:"seed"`
	// VirtualTime is the simulation clock at the moment of failure.
	VirtualTime sim.Time `json:"virtualTimeNs"`
	// Events is the number of simulator events processed before the
	// failure.
	Events uint64 `json:"events"`
	// Wall is the wall-clock duration the run had consumed.
	Wall time.Duration `json:"wallNs"`
	// PanicMsg is the panic value's string form (empty for watchdog
	// stops).
	PanicMsg string `json:"panic,omitempty"`
	// Stack is the goroutine stack at the panic site (empty for
	// watchdog stops).
	Stack string `json:"stack,omitempty"`
	// Violation is the structured invariant violation when Reason is
	// "invariant violation" (the strict audit policy failed the run).
	Violation *audit.InvariantViolation `json:"violation,omitempty"`
	// Budget is the structured breach when Reason is "budget breach": the
	// resource kind, the limit, the observed value, and (for in-flight
	// breaches) a checkpoint of what completed before enforcement
	// stopped the run.
	Budget *budget.BudgetError `json:"budget,omitempty"`
	// Config is the complete configuration of the failed run; replaying
	// it with the same seed reproduces the failure bit-for-bit.
	Config RunConfig `json:"config"`
}

// Unwrap exposes the structured budget breach (when there is one) to
// errors.As, so callers can match *budget.BudgetError without knowing
// it arrived wrapped in a RunError.
func (e *RunError) Unwrap() error {
	if e.Budget != nil {
		return e.Budget
	}
	return nil
}

// Error summarizes the failure with its replay context on one line.
func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: run failed: %s", e.Reason)
	if e.PanicMsg != "" {
		fmt.Fprintf(&b, ": %s", e.PanicMsg)
	}
	if e.Budget != nil {
		fmt.Fprintf(&b, ": %s", e.Budget.Error())
	}
	fmt.Fprintf(&b, " [seed=%d vt=%v events=%d flows=%s]",
		e.Seed, e.VirtualTime, e.Events, flowsSummary(e.Config.Flows))
	b.WriteString("; replay: reproduce -replay <key>.failed.json")
	return b.String()
}

// flowsSummary renders a compact count-by-CCA description, e.g.
// "100 (50 cubic, 50 reno)".
func flowsSummary(flows []FlowSpec) string {
	counts := map[string]int{}
	for _, f := range flows {
		counts[f.CCA]++
	}
	if len(counts) <= 1 {
		for cca := range counts {
			return fmt.Sprintf("%d %s", len(flows), cca)
		}
		return "0"
	}
	names := make([]string, 0, len(counts))
	for cca := range counts {
		names = append(names, cca)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, cca := range names {
		parts[i] = fmt.Sprintf("%d %s", counts[cca], cca)
	}
	return fmt.Sprintf("%d (%s)", len(flows), strings.Join(parts, ", "))
}

// WriteJSON serializes the failure record (indented, stable field
// order) for checkpointing next to sweep results.
func (e *RunError) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// ReadRunError deserializes a failure record written by WriteJSON.
func ReadRunError(r io.Reader) (*RunError, error) {
	var e RunError
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("core: decoding failure record: %w", err)
	}
	return &e, nil
}
