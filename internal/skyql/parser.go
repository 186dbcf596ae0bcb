package skyql

import (
	"fmt"
	"strconv"
	"strings"

	"liferaft/internal/federation"
)

// Column is a projected column reference (alias.field or *).
type Column struct {
	Alias string // empty for *
	Field string // "*" for alias.* and bare *
}

// Source is one FROM entry: an archive with its alias.
type Source struct {
	Archive string
	Alias   string
}

// MagWindow is a "alias.mag BETWEEN lo AND hi" predicate.
type MagWindow struct {
	Alias  string
	Lo, Hi float64
}

// Query is the parsed AST.
type Query struct {
	Columns []Column
	Sources []Source
	// XMatch lists the aliases joined, in plan order; RadiusArcsec is
	// the match tolerance.
	XMatch       []string
	RadiusArcsec float64
	// Region: CIRCLE center/radius in degrees.
	RA, Dec, RegionRadiusDeg float64
	// Mag holds at most one photometric window (the engine applies
	// per-query predicates on the matched archive's objects).
	Mag *MagWindow
	// Sample is the driving-archive selectivity; 1 when absent.
	Sample float64
	// Limit caps returned rows; 0 means unlimited.
	Limit int
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
	src  string
}

// Parse parses a SkyQL cross-match query.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("skyql: %s (at offset %d near %q)",
		fmt.Sprintf(format, args...), p.cur().pos, p.cur().text)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().isKeyword(kw) {
		return p.errorf("expected %s", strings.ToUpper(kw))
	}
	p.i++
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errorf("expected %v", kind)
	}
	return p.next(), nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	x, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("skyql: bad number %q at offset %d", t.text, t.pos)
	}
	return x, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Sample: 1}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if err := p.parseColumns(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseSources(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	if err := p.parsePredicates(q); err != nil {
		return nil, err
	}
	if p.cur().isKeyword("limit") {
		p.i++
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if n < 0 || n != float64(int(n)) {
			return nil, fmt.Errorf("skyql: LIMIT must be a non-negative integer")
		}
		q.Limit = int(n)
	}
	if p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input")
	}
	return q, p.validate(q)
}

func (p *parser) parseColumns(q *Query) error {
	for {
		if p.cur().kind == tokStar {
			p.i++
			q.Columns = append(q.Columns, Column{Field: "*"})
		} else {
			id, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			col := Column{Alias: id.text, Field: "*"}
			if p.cur().kind == tokDot {
				p.i++
				if p.cur().kind == tokStar {
					p.i++
				} else {
					f, err := p.expect(tokIdent)
					if err != nil {
						return err
					}
					col.Field = f.text
				}
			} else {
				// Bare identifier: treat as a field of the first source.
				col = Column{Field: id.text}
			}
			q.Columns = append(q.Columns, col)
		}
		if p.cur().kind != tokComma {
			return nil
		}
		p.i++
	}
}

func (p *parser) parseSources(q *Query) error {
	for {
		arch, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		alias := arch.text
		if p.cur().kind == tokIdent && !p.cur().isKeyword("where") {
			alias = p.next().text
		}
		q.Sources = append(q.Sources, Source{Archive: strings.ToLower(arch.text), Alias: alias})
		if p.cur().kind != tokComma {
			return nil
		}
		p.i++
	}
}

func (p *parser) parsePredicates(q *Query) error {
	for {
		switch {
		case p.cur().isKeyword("xmatch"):
			if err := p.parseXMatch(q); err != nil {
				return err
			}
		case p.cur().isKeyword("region"):
			if err := p.parseRegion(q); err != nil {
				return err
			}
		case p.cur().isKeyword("sample"):
			p.i++
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			x, err := p.number()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			q.Sample = x
		case p.cur().kind == tokIdent:
			if err := p.parseMagWindow(q); err != nil {
				return err
			}
		default:
			return p.errorf("expected predicate")
		}
		if !p.cur().isKeyword("and") {
			return nil
		}
		p.i++
	}
}

func (p *parser) parseXMatch(q *Query) error {
	if q.XMatch != nil {
		return fmt.Errorf("skyql: duplicate XMATCH predicate")
	}
	p.i++
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	for {
		a, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		q.XMatch = append(q.XMatch, a.text)
		if p.cur().kind != tokComma {
			break
		}
		p.i++
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokLess); err != nil {
		return err
	}
	r, err := p.number()
	if err != nil {
		return err
	}
	q.RadiusArcsec = r
	return nil
}

func (p *parser) parseRegion(q *Query) error {
	if q.RegionRadiusDeg != 0 {
		return fmt.Errorf("skyql: duplicate REGION predicate")
	}
	p.i++
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	shape, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if !strings.EqualFold(shape.text, "circle") {
		return fmt.Errorf("skyql: unsupported region shape %q (only CIRCLE)", shape.text)
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	if q.RA, err = p.number(); err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	if q.Dec, err = p.number(); err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	if q.RegionRadiusDeg, err = p.number(); err != nil {
		return err
	}
	_, err = p.expect(tokRParen)
	return err
}

func (p *parser) parseMagWindow(q *Query) error {
	alias, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	field, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if !strings.EqualFold(field.text, "mag") {
		return fmt.Errorf("skyql: unsupported predicate field %q (only mag)", field.text)
	}
	if err := p.expectKeyword("between"); err != nil {
		return err
	}
	lo, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("and"); err != nil {
		return err
	}
	hi, err := p.number()
	if err != nil {
		return err
	}
	if q.Mag != nil {
		return fmt.Errorf("skyql: at most one magnitude window is supported")
	}
	q.Mag = &MagWindow{Alias: alias.text, Lo: lo, Hi: hi}
	return nil
}

func (p *parser) validate(q *Query) error {
	if len(q.Sources) < 2 {
		return fmt.Errorf("skyql: cross-match needs at least two FROM sources")
	}
	if len(q.XMatch) < 2 {
		return fmt.Errorf("skyql: WHERE must contain XMATCH(a, b, ...) < radius")
	}
	if q.RadiusArcsec <= 0 {
		return fmt.Errorf("skyql: XMATCH radius must be positive arcseconds")
	}
	if q.RegionRadiusDeg <= 0 {
		return fmt.Errorf("skyql: WHERE must contain REGION(CIRCLE, ra, dec, radius)")
	}
	if q.RegionRadiusDeg > 180 {
		return fmt.Errorf("skyql: REGION radius %v degrees is above 180", q.RegionRadiusDeg)
	}
	if q.Sample <= 0 || q.Sample > 1 {
		return fmt.Errorf("skyql: SAMPLE must be in (0, 1]")
	}
	byAlias := make(map[string]Source, len(q.Sources))
	for _, s := range q.Sources {
		if _, dup := byAlias[s.Alias]; dup {
			return fmt.Errorf("skyql: duplicate alias %q", s.Alias)
		}
		byAlias[s.Alias] = s
	}
	for _, a := range q.XMatch {
		if _, ok := byAlias[a]; !ok {
			return fmt.Errorf("skyql: XMATCH references unknown alias %q", a)
		}
	}
	if q.Mag != nil {
		if _, ok := byAlias[q.Mag.Alias]; !ok {
			return fmt.Errorf("skyql: magnitude window references unknown alias %q", q.Mag.Alias)
		}
		if q.Mag.Hi < q.Mag.Lo {
			return fmt.Errorf("skyql: magnitude window bounds inverted")
		}
	}
	for _, c := range q.Columns {
		if c.Alias == "" {
			continue
		}
		if _, ok := byAlias[c.Alias]; !ok {
			return fmt.Errorf("skyql: SELECT references unknown alias %q", c.Alias)
		}
	}
	return nil
}

// Compile lowers the AST to a federation query: the XMATCH alias order
// becomes the serial left-deep plan order.
func Compile(q *Query, id uint64, seed int64) (federation.Query, error) {
	byAlias := make(map[string]Source, len(q.Sources))
	for _, s := range q.Sources {
		byAlias[s.Alias] = s
	}
	fq := federation.Query{
		ID: id, RA: q.RA, Dec: q.Dec, RadiusDeg: q.RegionRadiusDeg,
		MatchRadiusArcsec: q.RadiusArcsec,
		Selectivity:       q.Sample,
		Seed:              seed,
	}
	for _, a := range q.XMatch {
		fq.Archives = append(fq.Archives, byAlias[a].Archive)
	}
	if q.Mag != nil {
		fq.MagLo, fq.MagHi = q.Mag.Lo, q.Mag.Hi
	}
	return fq, nil
}
