package engine

import (
	"context"
	"testing"

	"repro/internal/hypergraph"
)

// FuzzAnalyzeText: for any text, AnalyzeText fails exactly when Parse does,
// with the same message; on success its session's hypergraph has Parse's
// fingerprint, and a second call answers the same session from the text
// plane.
func FuzzAnalyzeText(f *testing.F) {
	for _, text := range textCorpus()[:16] {
		f.Add(text)
	}
	for _, text := range badTexts {
		f.Add(text)
	}
	f.Add("a:b c\n#x y\np\tq r\n")
	f.Add("dup dup dup\ndup\n")
	f.Fuzz(func(t *testing.T, text string) {
		ctx := context.Background()
		e := New()
		h, _, perr := hypergraph.Parse(text)
		a, err := e.AnalyzeText(ctx, text)
		if (err == nil) != (perr == nil) {
			t.Fatalf("AnalyzeText err %v, Parse err %v", err, perr)
		}
		if perr != nil {
			if a != nil || err.Error() != perr.Error() {
				t.Fatalf("AnalyzeText = %v, %q; Parse err %q", a, err, perr)
			}
			if st := e.Stats(); st.Entries != 0 || len(e.textKeys()) != 0 {
				t.Fatalf("a parse error was cached: %+v", st)
			}
			return
		}
		if got, want := a.Hypergraph().Fingerprint128(), h.Fingerprint128(); got != want {
			t.Fatalf("AnalyzeText fingerprint %v, Parse fingerprint %v", got, want)
		}
		if again, err := e.AnalyzeText(ctx, text); again != a || err != nil {
			t.Fatalf("second AnalyzeText = %p, %v; first %p", again, err, a)
		}
		if st := e.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("second call missed the text plane: %+v", st)
		}
	})
}
