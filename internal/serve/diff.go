package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"dprof/internal/core"
)

// DiffRequest is the POST /diff body: two profile requests whose data
// profiles are compared A (baseline) against B (suspect). Each side is a
// full ProfileRequest — same validation, same defaults, same option
// canonicalization as POST /profile — and each side's document is fetched
// through the same request path, routed to its owner, so a side that was
// already profiled anywhere in the fleet is never simulated again.
type DiffRequest struct {
	A ProfileRequest `json:"a"`
	B ProfileRequest `json:"b"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	s.answerRequest(w, r, "/diff", &req, func() (job, error) {
		var keys [2]profileKey
		for i, side := range [2]*ProfileRequest{&req.A, &req.B} {
			var err error
			if keys[i], err = s.normalize(side); err != nil {
				return job{}, fmt.Errorf("profile %c: %w", 'a'+i, err)
			}
			// The diff runs on the data profile view; make sure both sides
			// render it (in canonical view order, so the side addresses
			// stay canonical).
			ensureDataProfile(&keys[i])
		}
		return job{
			addr: "diff/" + keys[0].address() + "/" + keys[1].address(),
			run:  func(func(string, any)) ([]byte, error) { return s.runDiff(keys) },
		}, nil
	})
}

// ensureDataProfile adds the dataprofile view to a normalized key that
// excluded it, preserving canonical (KnownViews) order.
func ensureDataProfile(k *profileKey) {
	// Cannot fail: the key's views are already validated.
	k.Views, _ = canonicalViews(append(slices.Clone(k.Views), "dataprofile"))
}

// runDiff diffs the exported data profiles of both sides. Each side's
// document comes through the request path exactly as a POST /profile of
// it would: the LRU, the owning replica, or a local flight. It runs inside
// the diff's own flight, so N identical diff requests cost at most two
// simulations total.
func (s *Server) runDiff(keys [2]profileKey) ([]byte, error) {
	var sides [2]core.DiffSide
	var exports [2]json.RawMessage
	for i, k := range keys {
		body, _, _, err := s.fetch(s.ctx, false, s.profileJob(k))
		var doc *core.ProfileDocument
		if err == nil {
			// ParseDocument validates the schema version, so a document
			// persisted by a newer build fails clearly instead of being
			// misread.
			doc, err = core.ParseDocument(body)
		}
		if err == nil {
			exports[i], err = doc.DataProfileExport()
		}
		if err != nil {
			return nil, fmt.Errorf("profile %c: %w", 'a'+i, err)
		}
		sides[i] = core.DiffSide{Workload: k.Workload, Address: k.address(), Summary: doc.Summary}
	}
	d, err := core.DiffExports(exports[0], exports[1])
	if err != nil {
		return nil, err
	}
	return json.Marshal(core.NewDiffDocument(sides[0], sides[1], d))
}
