package workload_test

import (
	"testing"

	"dprof/internal/app/workload"
)

// TestArmedDispatchEquivalence is the differential gate for armed hook
// dispatch: for every registered workload, a session whose cores skip the
// accesses no armed hook asked for must produce byte-identical profiles —
// every view, every window snapshot, every run value — to one where an
// extra always-on hook makes every core dispatch every access, monolithic
// and windowed. The cache hierarchy and the event wheel have their own
// oracles (internal/cache and internal/sim). CI runs this under -race.
func TestArmedDispatchEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			win := w.Windows(true)

			t.Run("monolithic", func(t *testing.T) {
				armed := runModeSession(t, name, 0, false)
				always := runModeSession(t, name, 0, true)
				compareSessions(t, "always-on", "armed", always, armed)
			})
			t.Run("windowed", func(t *testing.T) {
				length := (win.Warmup + win.Measure) / 4
				armed := runModeSession(t, name, length, false)
				always := runModeSession(t, name, length, true)
				compareSessions(t, "always-on", "armed", always, armed)
				if len(armed.Windows()) < 2 {
					t.Errorf("windowed run produced %d windows, want >= 2", len(armed.Windows()))
				}
			})
		})
	}
}
