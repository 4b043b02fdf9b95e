package serve

import (
	"encoding/json"
	"testing"
)

// FuzzRequestNormalize holds POST /profile and POST /diff body
// normalization to its contract. The body is decoded as answerRequest decodes
// it, as a ProfileRequest and as a DiffRequest; every decoded request is
// normalized (a diff side also gains the data profile view, as handleDiff
// adds it). A rejection must map to a 4xx through statusFor, never a 500
// or a panic. An accepted key must survive the forwarding round trip: its
// request(), re-encoded and normalized again, addresses the same profile
// and the same warm-start checkpoint.
func FuzzRequestNormalize(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Shutdown)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ProfileRequest
		if decodeBody(body, &req) == nil {
			checkNormalize(t, s, &req, false)
		}
		var diff DiffRequest
		if decodeBody(body, &diff) == nil {
			checkNormalize(t, s, &diff.A, true)
			checkNormalize(t, s, &diff.B, true)
		}
	})
}

func checkNormalize(t *testing.T, s *Server, req *ProfileRequest, diffSide bool) {
	t.Helper()
	norm := func(req *ProfileRequest) (profileKey, error) {
		k, err := s.normalize(req)
		if err == nil && diffSide {
			ensureDataProfile(&k)
		}
		return k, err
	}
	k, err := norm(req)
	if err != nil {
		if code := statusFor(err); code < 400 || code > 499 {
			t.Fatalf("normalize %+v: %v answers %d, want a 4xx", *req, err, code)
		}
		return
	}
	raw, err := json.Marshal(k.request())
	if err != nil {
		t.Fatal(err)
	}
	var again ProfileRequest
	if err := decodeBody(raw, &again); err != nil {
		t.Fatalf("re-encoded request %s does not decode: %v", raw, err)
	}
	k2, err := norm(&again)
	if err != nil {
		t.Fatalf("re-encoded request %s is rejected: %v", raw, err)
	}
	if k2.address() != k.address() || k2.warmAddress() != k.warmAddress() {
		t.Fatalf("re-encoded request %s normalizes to\n%+v, want\n%+v", raw, k2, k)
	}
}
