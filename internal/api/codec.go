package api

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The /v1/search reply is the one body that grows with the answer:
// tables × rows × cells. The server encodes a result's answers once, when
// its cache entry is built, and writes those bytes between a per-request
// head and SearchTail; the client decodes the reply without reflection.
// The bytes are exactly what json.Encoder.Encode writes for the same
// SearchResponse (HTML escaping, float format, omitempty, trailing
// newline), so the wire is the encoding/json one.

// AppendAnswers appends the JSON encoding of answers (null when nil) to
// dst. A NaN or infinite score fails, as it does in encoding/json.
func AppendAnswers(dst []byte, answers []SearchAnswer) ([]byte, error) {
	if answers == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, '[')
	for i := range answers {
		a := &answers[i]
		if math.IsNaN(a.Score) || math.IsInf(a.Score, 0) {
			return dst, fmt.Errorf("api: unsupported score %v", a.Score)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"rank":`...)
		b = strconv.AppendInt(b, int64(a.Rank), 10)
		b = append(b, `,"score":`...)
		b = appendFloat(b, a.Score)
		b = append(b, `,"num_rows":`...)
		b = strconv.AppendInt(b, int64(a.NumRows), 10)
		b = append(b, `,"pattern":`...)
		b = appendString(b, a.Pattern)
		b = append(b, `,"columns":`...)
		b = appendStrings(b, a.Columns)
		if len(a.FullColumns) > 0 {
			b = append(b, `,"full_columns":`...)
			b = appendStrings(b, a.FullColumns)
		}
		b = append(b, `,"rows":`...)
		if a.Rows == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, row := range a.Rows {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendStrings(b, row)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// SearchHead returns the head of the reply json.Encoder.Encode writes
// for resp: every field before the answers, then `"answers":`. The reply
// is the head, the answers (AppendAnswers' output) and SearchTail;
// resp.Answers is not read. The head is small and per request, so
// encoding/json writes it.
func SearchHead(resp *SearchResponse) ([]byte, error) {
	head := *resp
	head.Answers = nil
	b, err := json.Marshal(&head) // ends `"answers":null}`: Answers is the last field
	if err != nil {
		return nil, err
	}
	return b[:len(b)-len("null}")], nil
}

// SearchTail closes a /v1/search reply after its answers.
const SearchTail = "}\n"

// appendFloat is encoding/json's float64 format: the shortest
// round-trip form, exponent notation outside [1e-6, 1e21), "e-07"
// trimmed to "e-7".
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString is encoding/json's string format with HTML escaping on,
// the json.Encoder default: <, > and & as \u003c, \u003e, \u0026; control
// bytes escaped; invalid UTF-8 as \ufffd; U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b', '\f', '\n', '\r', '\t':
				b = append(b, '\\', "bfnrt"[strings.IndexByte("\b\f\n\r\t", c)])
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// plain marks the ASCII bytes a JSON string holds verbatim: all that is
// printable but '"' and '\\'.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// DecodeSearchResponse decodes a /v1/search reply. A reply as the server
// writes it is decoded without reflection and with one string for the
// whole body: every string without escapes is a substring of it, so
// holding any one keeps the body alive. A repeated key overwrites, as in
// encoding/json. Any other input (whitespace between tokens, an unknown
// or differently-cased key, a repeated plan or answers, a null scalar,
// invalid UTF-8, a syntax error) is decoded by json.Unmarshal, so the
// result and the error are always exactly encoding/json's.
func DecodeSearchResponse(data []byte) (*SearchResponse, error) {
	d := decoder{s: string(data)}
	// Chunks sized for a table reply: about a cell per 16 body bytes and a
	// row per 64, so a 30 KB body needs a few chunks of each.
	d.strs.chunk = min(max(len(data)/16, 16), 4096)
	d.rows.chunk = min(max(len(data)/64, 8), 1024)
	resp := new(SearchResponse)
	if d.response(resp) && strings.TrimRight(d.s[d.i:], " \t\r\n") == "" {
		return resp, nil
	}
	*resp = SearchResponse{}
	if err := json.Unmarshal(data, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// decoder is DecodeSearchResponse's fast path. Its methods report false
// on any input they do not handle.
type decoder struct {
	s    string
	i    int
	strs slab[string]
	rows slab[[]string]
}

// slab hands out consecutive runs of one backing array as slices, so
// the cells of many rows, and the rows of a table, cost one allocation
// per chunk rather than one per slice.
type slab[T any] struct {
	buf   []T
	start int
	chunk int
}

func (s *slab[T]) begin() { s.start = len(s.buf) }

func (s *slab[T]) add(v T) {
	if len(s.buf) == cap(s.buf) {
		n := len(s.buf) - s.start
		buf := make([]T, n, max(2*n, s.chunk))
		copy(buf, s.buf[s.start:])
		s.buf, s.start = buf, 0
	}
	s.buf = append(s.buf, v)
}

// end returns the run since begin: non-nil even when empty, and capped
// so that appending to it cannot reach the next run.
func (s *slab[T]) end() []T {
	if len(s.buf) == s.start {
		return []T{}
	}
	return s.buf[s.start:len(s.buf):len(s.buf)]
}

// lit consumes tok.
func (d *decoder) lit(tok string) bool {
	if strings.HasPrefix(d.s[d.i:], tok) {
		d.i += len(tok)
		return true
	}
	return false
}

// object parses an object, handing each key to field, which parses the
// value.
func (d *decoder) object(field func(key string) bool) bool {
	if !d.lit("{") {
		return false
	}
	if d.lit("}") {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.lit(":") || !field(key) {
			return false
		}
		if !d.lit(",") {
			return d.lit("}")
		}
	}
}

// array parses an array, calling elem to parse each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.lit("[") {
		return false
	}
	if d.lit("]") {
		return true
	}
	for elem() {
		if !d.lit(",") {
			return d.lit("]")
		}
	}
	return false
}

func (d *decoder) response(r *SearchResponse) bool {
	return d.object(func(key string) bool {
		switch key {
		case "query":
			return d.into(&r.Query)
		case "k":
			return integer(d, &r.K)
		case "algorithm":
			return d.into(&r.Algorithm)
		case "d":
			return integer(d, &r.D)
		case "epoch":
			return d.uint(&r.Epoch)
		case "cached":
			return d.bool(&r.Cached)
		case "elapsed_ms":
			return d.float(&r.ElapsedMS)
		case "plan":
			if r.Plan != nil { // encoding/json merges a repeated object
				return false
			}
			if d.lit("null") {
				return true
			}
			r.Plan = new(PlanOut)
			return d.plan(r.Plan)
		case "answers":
			return r.Answers == nil && d.answers(&r.Answers)
		}
		return false
	})
}

func (d *decoder) plan(p *PlanOut) bool {
	return d.object(func(key string) bool {
		switch key {
		case "algorithm":
			return d.into(&p.Algorithm)
		case "auto":
			return d.bool(&p.Auto)
		case "reason":
			return d.into(&p.Reason)
		case "candidate_roots":
			return integer(d, &p.CandidateRoots)
		case "root_types":
			return integer(d, &p.RootTypes)
		case "pattern_space":
			return integer(d, &p.PatternSpace)
		case "frontier":
			return integer(d, &p.Frontier)
		case "prepare_ms":
			return d.float(&p.PrepareMS)
		case "enumerate_ms":
			return d.float(&p.EnumerateMS)
		case "aggregate_ms":
			return d.float(&p.AggregateMS)
		case "rank_ms":
			return d.float(&p.RankMS)
		case "bound_pruned":
			return integer(d, &p.BoundPruned)
		}
		return false
	})
}

func (d *decoder) answers(out *[]SearchAnswer) bool {
	if d.lit("null") {
		return true
	}
	as := []SearchAnswer{}
	ok := d.array(func() bool {
		as = append(as, SearchAnswer{})
		return d.answer(&as[len(as)-1])
	})
	*out = as
	return ok
}

func (d *decoder) answer(a *SearchAnswer) bool {
	return d.object(func(key string) bool {
		switch key {
		case "rank":
			return integer(d, &a.Rank)
		case "score":
			return d.float(&a.Score)
		case "num_rows":
			return integer(d, &a.NumRows)
		case "pattern":
			return d.into(&a.Pattern)
		case "columns":
			return d.strings(&a.Columns)
		case "full_columns":
			return d.strings(&a.FullColumns)
		case "rows":
			return d.table(&a.Rows)
		}
		return false
	})
}

// table parses an array of string arrays (null: nil) onto the row slab.
func (d *decoder) table(out *[][]string) bool {
	if d.lit("null") {
		return true
	}
	d.rows.begin()
	ok := d.array(func() bool {
		var row []string
		ok := d.strings(&row)
		d.rows.add(row)
		return ok
	})
	*out = d.rows.end()
	return ok
}

// strings parses a string array (null: nil) onto the string slab.
func (d *decoder) strings(out *[]string) bool {
	if d.lit("null") {
		return true
	}
	d.strs.begin()
	ok := d.array(func() bool {
		s, ok := d.str()
		d.strs.add(s)
		return ok
	})
	*out = d.strs.end()
	return ok
}

func (d *decoder) into(out *string) (ok bool) {
	*out, ok = d.str()
	return ok
}

// str parses a string: a substring of the body when it has no escapes
// and is valid UTF-8, as everything the server writes for plain text.
func (d *decoder) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	start, ascii := d.i, true
	for j := start; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c < utf8.RuneSelf && plain[c]:
		case c == '"':
			d.i = j + 1
			if s := d.s[start:j]; ascii || utf8.ValidString(s) {
				return s, true
			}
			return d.unquote(start - 1)
		case c == '\\':
			return d.unquote(start - 1)
		case c < 0x20:
			return "", false
		default:
			ascii = false
		}
	}
	return "", false
}

// unquote decodes the string literal opening at quote into a new string.
// It decodes the one-letter escapes the server writes (the newlines of a
// pattern); \u escapes and invalid UTF-8 are left to json.Unmarshal.
func (d *decoder) unquote(quote int) (string, bool) {
	j := quote + 1
	for ; j < len(d.s) && d.s[j] != '"'; j++ {
		if d.s[j] == '\\' {
			j++
		}
	}
	if j >= len(d.s) {
		return "", false
	}
	lit := d.s[quote+1 : j]
	d.i = j + 1
	if strings.Contains(lit, `\u`) || !utf8.ValidString(lit) {
		var s string
		err := json.Unmarshal([]byte(d.s[quote:d.i]), &s)
		return s, err == nil
	}
	var b strings.Builder
	b.Grow(len(lit))
	for k := 0; k < len(lit); k++ {
		c := lit[k]
		if c < 0x20 {
			return "", false
		}
		if c == '\\' {
			k++
			e := strings.IndexByte(`"\/bfnrt`, lit[k])
			if e < 0 {
				return "", false
			}
			c = "\"\\/\b\f\n\r\t"[e]
		}
		b.WriteByte(c)
	}
	return b.String(), true
}

// number returns the next number literal, checked against JSON's
// grammar (strconv accepts more: "+1", "01", ".5", "5.", "0x1p3", …).
func (d *decoder) number() (string, bool) {
	s, j := d.s, d.i
	digits := func() bool {
		k := j
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		return j > k
	}
	if j < len(s) && s[j] == '-' {
		j++
	}
	if j < len(s) && s[j] == '0' {
		j++
	} else if !digits() {
		return "", false
	}
	if j < len(s) && s[j] == '.' {
		j++
		if !digits() {
			return "", false
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if !digits() {
			return "", false
		}
	}
	lit := s[d.i:j]
	d.i = j
	return lit, true
}

// integer parses an int or int64 field. strconv refuses a fraction or
// an exponent, as encoding/json does for integer fields.
func integer[T int | int64](d *decoder, out *T) bool {
	lit, ok := d.number()
	v, err := strconv.ParseInt(lit, 10, 64)
	*out = T(v)
	return ok && err == nil && int64(*out) == v
}

func (d *decoder) uint(out *uint64) bool {
	lit, ok := d.number()
	v, err := strconv.ParseUint(lit, 10, 64)
	*out = v
	return ok && err == nil
}

func (d *decoder) float(out *float64) bool {
	lit, ok := d.number()
	v, err := strconv.ParseFloat(lit, 64)
	*out = v
	return ok && err == nil
}

func (d *decoder) bool(out *bool) bool {
	*out = d.lit("true")
	return *out || d.lit("false")
}
