package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// textKeys returns a copy of the text plane: every key and its entry.
func (e *Engine) textKeys() map[string]*entry {
	keys := map[string]*entry{}
	for i := range e.shards {
		t := &e.shards[i]
		t.textMu.Lock()
		for k, en := range t.texts {
			keys[k] = en
		}
		t.textMu.Unlock()
	}
	return keys
}

// resident reports whether en is in its shard's memo.
func (e *Engine) resident(en *entry) bool {
	s := e.memoShard(en.fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Contains(s.memo[en.fp], en)
}

// checkTextPlane asserts the plane's invariants: no more keys than resident
// entries, and every key names a resident entry that holds it.
func checkTextPlane(t *testing.T, e *Engine) {
	t.Helper()
	keys := e.textKeys()
	if n := e.Stats().Entries; len(keys) > n {
		t.Fatalf("text plane holds %d keys for %d resident entries", len(keys), n)
	}
	for k, en := range keys {
		if !e.resident(en) {
			t.Fatalf("text key %q names an evicted entry", k)
		}
		s := e.memoShard(en.fp)
		s.mu.Lock()
		held := en.text
		s.mu.Unlock()
		if held != k {
			t.Fatalf("text key %q names an entry holding %q", k, held)
		}
	}
}

// spellings returns base and respellings of the same schema: commas,
// "name:" prefixes, '#' comments, CRLF line ends, blank lines, and other
// whitespace around and between the nodes.
func spellings(base string) []string {
	lines := strings.Split(strings.TrimRight(base, "\n"), "\n")
	edit := func(f func(i int, l string) string, sep string) string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = f(i, l)
		}
		return strings.Join(out, sep)
	}
	return []string{
		base,
		edit(func(_ int, l string) string { return strings.ReplaceAll(l, " ", ",") }, "\n"),
		edit(func(_ int, l string) string { return strings.ReplaceAll(l, " ", " , ") }, "\n"),
		edit(func(i int, l string) string { return fmt.Sprintf("R%d: %s", i, l) }, "\n"),
		edit(func(i int, l string) string { return fmt.Sprintf("# edge %d\n%s", i, l) }, "\n"),
		edit(func(_ int, l string) string { return l }, "\r\n") + "\r\n",
		edit(func(_ int, l string) string { return "\t " + strings.ReplaceAll(l, " ", " \t ") + "  " }, "\n\n"),
		"\n" + edit(func(_ int, l string) string { return l }, "\n") + "\n\n",
	}
}

// textCorpus is the paper figures, random acyclic and cyclic schemas from
// gen, and every respelling of each.
func textCorpus() []string {
	bases := []*hypergraph.Hypergraph{
		hypergraph.Fig1(), hypergraph.Fig1MinusACE(), hypergraph.Fig5(),
		hypergraph.CyclicCounterexample(), hypergraph.Triangle(),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		bases = append(bases,
			gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 12, MinArity: 2, MaxArity: 4}),
			gen.Random(rng, gen.RandomSpec{Nodes: 10, Edges: 8, MinArity: 2, MaxArity: 4}))
	}
	var texts []string
	for _, h := range bases {
		texts = append(texts, spellings(h.Format())...)
	}
	return texts
}

// badTexts do not parse.
var badTexts = []string{
	"",
	"\n\n# only a comment\n",
	"A B\n: C D\n",
	"A B\n  R2:\n",
	"A B\r\nR: , ,\r\n",
}

// mustParse parses text or fails the test.
func mustParse(t *testing.T, text string) *hypergraph.Hypergraph {
	t.Helper()
	h, _, err := hypergraph.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return h
}

// TestAnalyzeTextMatchesParse: over the corpus, AnalyzeText returns the
// session AnalyzeCtx returns for Parse's hypergraph, whichever comes first,
// and a repeat returns it again; a text that does not parse fails with
// Parse's error and inserts nothing.
func TestAnalyzeTextMatchesParse(t *testing.T) {
	ctx := context.Background()
	for _, textFirst := range []bool{true, false} {
		e := New()
		for _, text := range textCorpus() {
			var a *analysis.Analysis
			var err error
			if textFirst {
				a, err = e.AnalyzeText(ctx, text)
			}
			want := e.AnalyzeCtx(ctx, mustParse(t, text))
			if !textFirst {
				a, err = e.AnalyzeText(ctx, text)
			}
			if err != nil {
				t.Fatalf("AnalyzeText(%q): %v", text, err)
			}
			if a != want {
				t.Fatalf("AnalyzeText(%q) and AnalyzeCtx(Parse) returned different sessions", text)
			}
			if again, _ := e.AnalyzeText(ctx, text); again != a {
				t.Fatalf("repeat AnalyzeText(%q) returned another session", text)
			}
			if got, want := a.Hypergraph().Fingerprint128(), mustParse(t, text).Fingerprint128(); got != want {
				t.Fatalf("AnalyzeText(%q) answered fingerprint %v, Parse builds %v", text, got, want)
			}
		}
		checkTextPlane(t, e)
		before, keys := e.Stats(), len(e.textKeys())
		for _, text := range badTexts {
			_, _, want := hypergraph.Parse(text)
			a, err := e.AnalyzeText(ctx, text)
			var gotP, wantP *hypergraph.ErrParse
			if a != nil || !errors.As(err, &gotP) || !errors.As(want, &wantP) || *gotP != *wantP {
				t.Fatalf("AnalyzeText(%q) = %v, %v; Parse error %v", text, a, err, want)
			}
		}
		if after := e.Stats(); after != before || len(e.textKeys()) != keys {
			t.Fatalf("parse errors changed the memo: %+v -> %+v, %d -> %d text keys", before, after, keys, len(e.textKeys()))
		}
	}
}

// TestTextPlaneRespelling: spellings of one schema share one session, and
// the entry keeps only the latest spelling as its text key, so reformatting
// cannot pin unbounded text. A text hit counts as a memo hit.
func TestTextPlaneRespelling(t *testing.T) {
	ctx := context.Background()
	e := New()
	texts := spellings(hypergraph.Fig1().Format())
	first, _ := e.AnalyzeText(ctx, texts[0])
	for _, text := range texts {
		if a, _ := e.AnalyzeText(ctx, text); a != first {
			t.Fatalf("spelling %q answered another session", text)
		}
		keys := e.textKeys()
		if len(keys) != 1 || keys[text] == nil {
			t.Fatalf("after %q the text plane holds %d keys", text, len(keys))
		}
	}
	before := e.Stats()
	last := texts[len(texts)-1]
	e.AnalyzeText(ctx, last)
	if st := e.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses || st.Entries != 1 {
		t.Fatalf("text hit: stats %+v -> %+v", before, st)
	}
}

// TestTextPlaneFollowsEviction: under WithMaxEntries the plane never holds
// more keys than there are resident entries, and an evicted schema's text
// misses and re-parses into a new session.
func TestTextPlaneFollowsEviction(t *testing.T) {
	ctx := context.Background()
	texts := make([]string, 12)
	for i, h := range distinctChains(len(texts)) {
		texts[i] = h.Format()
	}
	e := New(WithShards(1), WithMaxEntries(3))
	first, _ := e.AnalyzeText(ctx, texts[0])
	for _, text := range texts[1:] {
		if _, err := e.AnalyzeText(ctx, text); err != nil {
			t.Fatal(err)
		}
		checkTextPlane(t, e)
	}
	if _, ok := e.textKeys()[texts[0]]; ok {
		t.Fatal("an evicted schema's text is still keyed")
	}
	before := e.Stats()
	again, _ := e.AnalyzeText(ctx, texts[0])
	if st := e.Stats(); st.Misses != before.Misses+1 || again == first {
		t.Fatalf("evicted text answered from the memo: stats %+v -> %+v", before, st)
	}
	checkTextPlane(t, e)

	// A text hit refreshes its entry's recency, so the next eviction takes
	// the other entry.
	e = New(WithShards(1), WithMaxEntries(2))
	a, _ := e.AnalyzeText(ctx, texts[0])
	e.AnalyzeText(ctx, texts[1])
	e.AnalyzeText(ctx, texts[0]) // text hit: texts[1] is now the victim
	e.AnalyzeText(ctx, texts[2])
	if again, _ := e.AnalyzeText(ctx, texts[0]); again != a {
		t.Fatal("a text hit did not refresh its entry's recency")
	}
	if _, ok := e.textKeys()[texts[1]]; ok {
		t.Fatal("the least recently touched schema was not the one evicted")
	}

	// Respelled and concurrent churn across shards keeps the invariant.
	e = New(WithShards(4), WithMaxEntries(4))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				sp := spellings(texts[rng.Intn(len(texts))])
				if _, err := e.AnalyzeText(ctx, sp[rng.Intn(len(sp))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	checkTextPlane(t, e)
}

// TestAnalyzeTextKeyed: under WithKeyedDigest a text hit answers the same
// session without a keyed walk, and a respelling walks its fresh parse
// once and lands on the same entry.
func TestAnalyzeTextKeyed(t *testing.T) {
	ctx := context.Background()
	e := New(WithKeyedDigest(0x5eed))
	texts := spellings(hypergraph.Fig5().Format())
	a, err := e.AnalyzeText(ctx, texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.KeyedWalks != 1 {
		t.Fatalf("keyed walks after the first parse = %d, want 1", st.KeyedWalks)
	}
	if again, _ := e.AnalyzeText(ctx, texts[0]); again != a {
		t.Fatal("keyed text hit returned another session")
	}
	if st := e.Stats(); st.KeyedWalks != 1 {
		t.Fatalf("a text hit walked the keyed digest: %d walks", st.KeyedWalks)
	}
	if b, _ := e.AnalyzeText(ctx, texts[3]); b != a {
		t.Fatal("keyed respelling returned another session")
	}
	if got := e.AnalyzeCtx(ctx, mustParse(t, texts[0])); got != a {
		t.Fatal("keyed AnalyzeCtx(Parse) returned another session")
	}
	if st := e.Stats(); st.KeyedWalks != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 keyed walks and one entry", st)
	}
}

// TestAnalyzeTextFiresFaultSite: a text hit passes the engine's chaos site
// like every memoized query; a text that does not parse never reaches it.
func TestAnalyzeTextFiresFaultSite(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	e := New()
	text := hypergraph.Fig1().Format()
	e.AnalyzeText(ctx, text)
	fault.Activate(fault.EngineAnalyze, fault.Injection{Kind: fault.KindPanic, Panic: "text hit", Count: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an armed panic plan did not fire on a text hit")
			}
		}()
		e.AnalyzeText(ctx, text)
	}()
	fault.Activate(fault.EngineAnalyze, fault.Injection{Kind: fault.KindPanic, Panic: "parse error"})
	if _, err := e.AnalyzeText(ctx, "A B\n: C\n"); err == nil {
		t.Fatal("bad text parsed")
	}
	if n := fault.Hits(fault.EngineAnalyze); n != 0 {
		t.Fatalf("a parse error reached the fault site %d times", n)
	}
}

// TestAnalyzeTextRaceHammer: concurrent AnalyzeText over texts shared by
// every goroutine, respellings of them, and texts only one goroutine sends
// keeps one session per identity (run under -race in CI).
func TestAnalyzeTextRaceHammer(t *testing.T) {
	ctx := context.Background()
	shared := []*hypergraph.Hypergraph{hypergraph.Fig1(), hypergraph.Fig5(), hypergraph.Triangle()}
	shared = append(shared, workload(8)...)
	const hammers = 8
	e := New(WithShards(4))
	var mu sync.Mutex
	sessions := map[hypergraph.Fingerprint128]*analysis.Analysis{}
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			own := gen.AcyclicChain(3+g, 3, 1).Format()
			for i := 0; i < 300; i++ {
				text := own
				if i%4 != 0 {
					sp := spellings(shared[rng.Intn(len(shared))].Format())
					text = sp[rng.Intn(len(sp))]
				}
				a, err := e.AnalyzeText(ctx, text)
				if err != nil {
					t.Error(err)
					return
				}
				fp := a.Hypergraph().Fingerprint128()
				mu.Lock()
				if prev, ok := sessions[fp]; !ok {
					sessions[fp] = a
				} else if prev != a {
					t.Errorf("two sessions for one identity (text %q)", text)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Entries != len(sessions) || st.Misses != int64(len(sessions)) {
		t.Fatalf("stats = %+v for %d identities", st, len(sessions))
	}
	checkTextPlane(t, e)
}
