package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dprof/internal/core"
)

// The warm-start checkpoint pool: dprofd keeps machine checkpoints captured
// at the warmup boundary (core.Session.Warmup) and forks measured phases
// from them, so requests that differ only in measured length skip the warmup
// simulation entirely. Checkpoints are content-addressed by the profile key
// minus its measured window — everything that shapes machine state at the
// boundary (workload, options, rate, views, history targets, warmup length)
// addresses the checkpoint; the measure does not, because the checkpoint is
// taken with the measured window still unarmed. Forks are byte-identical to
// cold runs (the core warm-start contract), so the body cache and the
// replica ring never observe the difference.

// warmAddress returns the checkpoint content address for a normalized
// profile key: a SHA-256 over the key with the measured length zeroed.
func (k profileKey) warmAddress() string {
	wk := k
	wk.MeasureCycles = 0
	raw, err := json.Marshal(wk)
	if err != nil {
		panic(fmt.Sprintf("serve: profile key not marshalable: %v", err)) // plain data; cannot happen
	}
	sum := sha256.Sum256(raw)
	return "warm/" + hex.EncodeToString(sum[:])
}

// runProfileWarm serves a profile request from the checkpoint pool: capture
// the warmup boundary on first use of a warm address, fork the measured
// phase from it on every use.
func (s *Server) runProfileWarm(k profileKey) (body []byte, err error) {
	err = s.ckpts.Do(k.warmAddress(), func() (*core.Checkpoint, error) {
		sess, err := s.buildSession(k, nil)
		if err != nil {
			return nil, err
		}
		return sess.Warmup()
	}, func(cp *core.Checkpoint) error {
		s.simulations.Add(1)
		cp.Fork(k.MeasureCycles)
		body, err = renderProfile(cp.Session(), k)
		return err
	})
	return body, err
}
