package pprofout

import (
	"testing"

	"dprof/internal/core"
)

// FuzzDocumentConsumers feeds arbitrary bytes to the document readers
// dprofd runs on documents from its disk store and from peers, a lying peer
// included. Whenever core.ParseDocument accepts the bytes, the pprof export
// and a self-diff of the data profile view must return, with a result or an
// error, and never panic. The seed corpus holds the three document goldens
// and hand-made edge cases: empty views, a missing or malformed data
// profile, a newer schema, and negative and huge counts.
func FuzzDocumentConsumers(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		doc, err := core.ParseDocument(raw)
		if err != nil {
			return
		}
		if gz, err := EncodeDocument(doc, Meta{Comments: []string{"fuzz"}}); err == nil && len(gz) == 0 {
			t.Fatal("EncodeDocument returned an empty export without an error")
		}
		x, err := doc.DataProfileExport()
		if err != nil {
			return
		}
		if d, err := core.DiffExports(x, x); err == nil && d == nil {
			t.Fatal("DiffExports returned neither a diff nor an error")
		}
	})
}
