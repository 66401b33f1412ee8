package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SQL Server", []string{"sql", "server"}},
		{"US$ 77 billion", []string{"us", "77", "billion"}},
		{"O-R database", []string{"o", "r", "database"}},
		{"", nil},
		{"   ", nil},
		{"Bill Gates", []string{"bill", "gates"}},
		{"C++", []string{"c"}},
		{"Halo 2", []string{"halo", "2"}},
		{"Written in", []string{"written", "in"}},
		{"GTA: San Andreas", []string{"gta", "san", "andreas"}},
		{"a,b;c", []string{"a", "b", "c"}},
		{"ÜBER straße", []string{"über", "straße"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenSetDeduplicates(t *testing.T) {
	got := TokenSet("database database systems Database")
	want := []string{"database", "systems"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokenSet = %v, want %v", got, want)
	}
}

func TestStemKnownWords(t *testing.T) {
	// Reference pairs from Porter's published vocabulary.
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"movies":       "movi",
		"databases":    "databas",
		"companies":    "compani",
		"cities":       "citi",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"a", "is", "go", ""} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	words := []string{"database", "software", "company", "revenue", "movie",
		"population", "washington", "university", "enrollment", "gibson"}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		// Porter is not idempotent in general, but it must be stable on
		// these corpus words since the dictionary chases stems once.
		if Stem(s2) != s2 {
			t.Errorf("Stem not stable after two applications for %q: %q -> %q -> %q", w, s1, s2, Stem(s2))
		}
	}
}

func TestStemNeverPanicsAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		w := sb.String()
		got := Stem(w)
		if len(got) > len(w)+1 {
			t.Fatalf("Stem(%q) = %q grew by more than one rune", w, got)
		}
	}
}

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	id1 := d.Intern("database")
	id2 := d.Intern("database")
	if id1 != id2 {
		t.Errorf("Intern not stable: %d vs %d", id1, id2)
	}
	if d.Lookup("database") != id1 {
		t.Errorf("Lookup mismatch")
	}
	if d.Lookup("nonexistent") != NoWord {
		t.Errorf("Lookup of unknown word should be NoWord")
	}
	if d.Word(id1) != "database" {
		t.Errorf("Word roundtrip failed")
	}
}

func TestDictStemming(t *testing.T) {
	d := NewDict()
	movies := d.Intern("movies")
	movi := d.Lookup("movi")
	if movi == NoWord {
		t.Fatalf("stem should be auto-interned")
	}
	if d.Canonical(movies) != movi {
		t.Errorf("Canonical(movies) = %d, want stem id %d", d.Canonical(movies), movi)
	}
	// A stem maps to itself.
	if d.Canonical(movi) != movi {
		t.Errorf("Canonical of stem should be identity")
	}
}

func TestDictSynonyms(t *testing.T) {
	d := NewDict()
	d.AddSynonym("film", "movie")
	film := d.Lookup("film")
	movie := d.Lookup("movie")
	if film == NoWord || movie == NoWord {
		t.Fatalf("synonym words should be interned")
	}
	if d.Canonical(film) != d.Canonical(movie) {
		t.Errorf("synonyms should share canonical id")
	}
	// Chains flatten: picture -> film -> movie.
	d.AddSynonym("picture", "film")
	pic := d.Lookup("picture")
	if d.Canonical(pic) != d.Canonical(movie) {
		t.Errorf("synonym chain should flatten to movie's canonical id")
	}
}

func TestDictSelfSynonymIgnored(t *testing.T) {
	d := NewDict()
	d.AddSynonym("x", "x")
	id := d.Lookup("x")
	if d.Canonical(id) != id {
		t.Errorf("self-synonym should be ignored")
	}
}

func TestQueryTokensUnknown(t *testing.T) {
	d := NewDict()
	d.Intern("database")
	ids, surf := d.QueryTokens("database zebra")
	if len(ids) != 2 || len(surf) != 2 {
		t.Fatalf("QueryTokens lengths wrong: %v %v", ids, surf)
	}
	if ids[0] == NoWord {
		t.Errorf("known word should resolve")
	}
	if ids[1] != NoWord {
		t.Errorf("unknown word should be NoWord")
	}
}

func TestQueryTokensStemsFallback(t *testing.T) {
	d := NewDict()
	d.Intern("cities") // interns "citi" too
	ids, _ := d.QueryTokens("city")
	// "city" itself unseen; its stem "citi" is known.
	if len(ids) != 1 || ids[0] == NoWord {
		t.Errorf("stem fallback failed: %v", ids)
	}
}

func TestDictLenAndWords(t *testing.T) {
	d := NewDict()
	b, a := d.Intern("b"), d.Intern("a")
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Word(b) != "b" || d.Word(a) != "a" {
		t.Errorf("Word(%d), Word(%d) = %q, %q; want b, a", b, a, d.Word(b), d.Word(a))
	}
}

// TestDictForkIsolation: two forks of one dictionary intern different new
// words (one whose stem is new too) and synonyms while readers query the
// parent. The parent and the sibling never see them, and the words all
// three share keep their IDs and canonical forms.
func TestDictForkIsolation(t *testing.T) {
	parent := NewDict()
	for _, w := range []string{"database", "companies", "revenue", "movies"} {
		parent.Intern(w)
	}
	parent.AddSynonym("firm", "companies")
	snap := parent.Snapshot()
	query := "databases companies firm revenue"
	wantIDs, _ := parent.QueryTokens(query)
	forks := []*Dict{parent.Fork(), parent.Fork()}
	fresh := []string{"running", "jumped"} // new words with new stems
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ids, _ := parent.QueryTokens(query); !reflect.DeepEqual(ids, wantIDs) {
				t.Errorf("parent resolves %q to %v, want %v", query, ids, wantIDs)
				return
			}
			if parent.Lookup("run") != NoWord || parent.Lookup("jump") != NoWord || parent.Len() != len(snap.Words) {
				t.Errorf("a fork's word reached the parent")
				return
			}
		}
	}()
	for f, d := range forks {
		id := d.Intern(fresh[f])
		if int(id) != len(snap.Words) || d.Lookup(Stem(fresh[f])) != d.Canonical(id) || d.Canonical(id) == id {
			t.Fatalf("fork %d: %q got id %d, stem %d", f, fresh[f], id, d.Canonical(id))
		}
		d.AddSynonym("corp", "companies")
	}
	close(stop)
	<-done
	if !reflect.DeepEqual(parent.Snapshot(), snap) {
		t.Fatal("forking and writing the forks changed the parent")
	}
	for f, d := range forks {
		if got, _ := d.QueryTokens(query); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("fork %d resolves shared words to %v, want %v", f, got, wantIDs)
		}
		if id := d.Lookup(fresh[f]); d.Word(id) != fresh[f] || d.Word(d.Canonical(id)) != Stem(fresh[f]) {
			t.Fatalf("fork %d: %q reads back as %q, stem %q", f, fresh[f], d.Word(id), d.Word(d.Canonical(id)))
		}
		other := fresh[1-f]
		if d.Lookup(other) != NoWord || d.Lookup(Stem(other)) != NoWord {
			t.Fatalf("fork %d sees its sibling's %q", f, other)
		}
		if d.Canonical(d.Lookup("corp")) != d.Canonical(d.Lookup("companies")) {
			t.Fatalf("fork %d lost its synonym", f)
		}
	}
	if parent.Lookup("corp") != NoWord {
		t.Fatal("parent sees a fork's synonym")
	}
}
