package skyql

import (
	"strings"
	"testing"
	"testing/quick"
)

const canonical = `
SELECT t.id, s.id, s.mag
FROM twomass t, sdss s
WHERE XMATCH(t, s) < 5
  AND REGION(CIRCLE, 150.0, 20.0, 4.0)
  AND s.mag BETWEEN 15 AND 18
  AND SAMPLE(0.5)
LIMIT 100`

func TestParseCanonical(t *testing.T) {
	q, err := Parse(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Columns) != 3 {
		t.Errorf("columns = %+v", q.Columns)
	}
	if len(q.Sources) != 2 || q.Sources[0].Archive != "twomass" || q.Sources[0].Alias != "t" {
		t.Errorf("sources = %+v", q.Sources)
	}
	if len(q.XMatch) != 2 || q.XMatch[0] != "t" || q.XMatch[1] != "s" {
		t.Errorf("xmatch = %v", q.XMatch)
	}
	if q.RadiusArcsec != 5 {
		t.Errorf("radius = %v", q.RadiusArcsec)
	}
	if q.RA != 150 || q.Dec != 20 || q.RegionRadiusDeg != 4 {
		t.Errorf("region = (%v, %v, %v)", q.RA, q.Dec, q.RegionRadiusDeg)
	}
	if q.Mag == nil || q.Mag.Alias != "s" || q.Mag.Lo != 15 || q.Mag.Hi != 18 {
		t.Errorf("mag = %+v", q.Mag)
	}
	if q.Sample != 0.5 || q.Limit != 100 {
		t.Errorf("sample/limit = %v/%v", q.Sample, q.Limit)
	}
}

func TestParseMinimal(t *testing.T) {
	q, err := Parse(`SELECT * FROM a x, b y WHERE XMATCH(x, y) < 3 AND REGION(CIRCLE, 0, -10, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Sample != 1 || q.Limit != 0 || q.Mag != nil {
		t.Errorf("defaults: %+v", q)
	}
	if len(q.Columns) != 1 || q.Columns[0].Field != "*" {
		t.Errorf("columns = %+v", q.Columns)
	}
}

func TestParseThreeWay(t *testing.T) {
	q, err := Parse(`SELECT t.id FROM twomass t, sdss s, usnob u
		WHERE XMATCH(t, s, u) < 4 AND REGION(CIRCLE, 10, 10, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.XMatch) != 3 {
		t.Errorf("xmatch = %v", q.XMatch)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	if _, err := Parse(`select * from a x, b y where xmatch(x,y) < 1 and region(circle, 1, 1, 1)`); err != nil {
		t.Fatal(err)
	}
}

func TestAliasDefaultsToArchiveName(t *testing.T) {
	q, err := Parse(`SELECT * FROM twomass, sdss WHERE XMATCH(twomass, sdss) < 2 AND REGION(CIRCLE, 1, 2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Sources[0].Alias != "twomass" {
		t.Errorf("alias = %q", q.Sources[0].Alias)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	q, err := Parse(`SELECT * FROM a x, b y WHERE XMATCH(x,y) < 2.5 AND REGION(CIRCLE, -10.5, -45.25, 1.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.RA != -10.5 || q.Dec != -45.25 {
		t.Errorf("coords = (%v, %v)", q.RA, q.Dec)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "expected SELECT"},
		{"no from", "SELECT *", "expected FROM"},
		{"one source", "SELECT * FROM a x WHERE XMATCH(x, x) < 1 AND REGION(CIRCLE,1,1,1)", "at least two"},
		{"no xmatch", "SELECT * FROM a x, b y WHERE REGION(CIRCLE,1,1,1)", "XMATCH"},
		{"no region", "SELECT * FROM a x, b y WHERE XMATCH(x, y) < 1", "REGION"},
		{"bad shape", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(BOX,1,1,1)", "unsupported region shape"},
		{"region radius above 180", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,180.5)", "above 180"},
		{"zero radius", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 0 AND REGION(CIRCLE,1,1,1)", "radius must be positive"},
		{"unknown alias", "SELECT * FROM a x, b y WHERE XMATCH(x, z) < 1 AND REGION(CIRCLE,1,1,1)", "unknown alias"},
		{"dup alias", "SELECT * FROM a x, b x WHERE XMATCH(x, x) < 1 AND REGION(CIRCLE,1,1,1)", "duplicate alias"},
		{"bad sample", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND SAMPLE(2)", "SAMPLE"},
		{"bad mag field", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND x.flux BETWEEN 1 AND 2", "unsupported predicate field"},
		{"inverted mag", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND x.mag BETWEEN 5 AND 2", "inverted"},
		{"mag unknown alias", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND z.mag BETWEEN 1 AND 2", "unknown alias"},
		{"trailing", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) garbage here", "trailing"},
		{"bad limit", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) LIMIT 1.5", "LIMIT"},
		{"select unknown alias", "SELECT z.id FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1)", "unknown alias"},
		{"dup xmatch", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1)", "duplicate XMATCH"},
		{"dup region", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND REGION(CIRCLE,1,1,1)", "duplicate REGION"},
		{"bad char", "SELECT * FROM a x; DROP", "unexpected character"},
		{"lone minus", "SELECT * FROM a x, b y WHERE XMATCH(x,y) < - AND REGION(CIRCLE,1,1,1)", "malformed number"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestCompile(t *testing.T) {
	q, err := Parse(canonical)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := Compile(q, 9, 77)
	if err != nil {
		t.Fatal(err)
	}
	if fq.ID != 9 || fq.Seed != 77 {
		t.Errorf("id/seed = %v/%v", fq.ID, fq.Seed)
	}
	if len(fq.Archives) != 2 || fq.Archives[0] != "twomass" || fq.Archives[1] != "sdss" {
		t.Errorf("archives = %v", fq.Archives)
	}
	if fq.MatchRadiusArcsec != 5 || fq.RadiusDeg != 4 || fq.Selectivity != 0.5 {
		t.Errorf("params = %+v", fq)
	}
	if fq.MagLo != 15 || fq.MagHi != 18 {
		t.Errorf("mag = (%v, %v)", fq.MagLo, fq.MagHi)
	}
}

// Property: the parser never panics on arbitrary input and either errors
// or returns a validated query.
func TestQuickParserTotal(t *testing.T) {
	f := func(s string) bool {
		q, err := Parse(s)
		if err != nil {
			return true
		}
		return q != nil && len(q.Sources) >= 2 && q.RadiusArcsec > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: parsing is deterministic.
func TestQuickParserDeterministic(t *testing.T) {
	f := func(s string) bool {
		q1, e1 := Parse(s)
		q2, e2 := Parse(s)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return e1.Error() == e2.Error()
		}
		return len(q1.Columns) == len(q2.Columns) && q1.RadiusArcsec == q2.RadiusArcsec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := tokEOF; k <= tokStar; k++ {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
	if tokenKind(99).String() == "" {
		t.Error("unknown kind string")
	}
}

func TestLexerCoverage(t *testing.T) {
	toks, err := lex("a.b, (1.5) < * -2")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokDot, tokIdent, tokComma, tokLParen,
		tokNumber, tokRParen, tokLess, tokStar, tokNumber, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestColumnForms(t *testing.T) {
	q, err := Parse(`SELECT id, t.*, t.mag, * FROM twomass t, sdss s
		WHERE XMATCH(t, s) < 1 AND REGION(CIRCLE, 1, 1, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Columns) != 4 {
		t.Fatalf("columns = %+v", q.Columns)
	}
	if q.Columns[0].Alias != "" || q.Columns[0].Field != "id" {
		t.Errorf("bare column = %+v", q.Columns[0])
	}
	if q.Columns[1].Alias != "t" || q.Columns[1].Field != "*" {
		t.Errorf("alias.* column = %+v", q.Columns[1])
	}
	if q.Columns[2].Field != "mag" {
		t.Errorf("alias.field column = %+v", q.Columns[2])
	}
}

func TestMoreParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",                       // missing columns
		"SELECT ,",                     // empty column
		"SELECT * FROM",                // missing source
		"SELECT * FROM a x, b y",       // missing WHERE
		"SELECT * FROM a x, b y WHERE", // empty predicates
		"SELECT * FROM a x, b y WHERE XMATCH x, y) < 1 AND REGION(CIRCLE,1,1,1)",                                                    // missing paren
		"SELECT * FROM a x, b y WHERE XMATCH(x, y) 1 AND REGION(CIRCLE,1,1,1)",                                                      // missing <
		"SELECT * FROM a x, b y WHERE XMATCH(x, y) < abc AND REGION(CIRCLE,1,1,1)",                                                  // radius not number
		"SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE 1,1,1)",                                                     // missing comma
		"SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND SAMPLE 0.5",                                      // missing paren
		"SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND x.mag BETWEEN 1 2",                               // missing AND
		"SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) AND x.mag BETWEEN 1 AND 2 AND y.mag BETWEEN 1 AND 2", // two windows
		"SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) LIMIT -3",                                            // negative limit
		"SELECT * FROM a x, b y WHERE AND",                                                                                          // bare AND
		"SELECT * FROM a x, b y WHERE 5",                                                                                            // number predicate
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestLimitZeroExplicit(t *testing.T) {
	q, err := Parse(`SELECT * FROM a x, b y WHERE XMATCH(x,y) < 1 AND REGION(CIRCLE,1,1,1) LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 0 {
		t.Errorf("limit = %d", q.Limit)
	}
}
