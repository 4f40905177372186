// Package yaml implements the subset of YAML used by Kubernetes
// Deployment and Service definition files: block mappings and sequences
// nested by indentation, plain/quoted scalars (double quotes take Go's
// escapes), comments, and multi-document streams. Values parse into
// map[string]any, []any, string, int64, float64, bool, and nil.
//
// The SDN controller stores every edge-service definition in this format
// (the paper: "We use the established and well-defined Kubernetes
// Deployment definition file format") and rewrites it through the
// annotation engine, so fidelity of the round trip matters more than
// breadth of the spec.
package yaml

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Unmarshal parses the first document in data.
func Unmarshal(data string) (any, error) {
	docs, err := UnmarshalAll(data)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return docs[0], nil
}

// UnmarshalAll parses a multi-document stream separated by "---".
func UnmarshalAll(data string) ([]any, error) {
	var docs []any
	for _, chunk := range splitDocuments(data) {
		lines, err := scan(chunk)
		if err != nil {
			return nil, err
		}
		if len(lines) == 0 {
			continue
		}
		p := &parser{lines: lines}
		v, err := p.parseBlock(lines[0].indent)
		if err != nil {
			return nil, err
		}
		if p.pos != len(p.lines) {
			return nil, fmt.Errorf("yaml: line %d: unexpected content %q", p.lines[p.pos].num, p.lines[p.pos].content)
		}
		docs = append(docs, v)
	}
	return docs, nil
}

// splitDocuments splits on "---" separator lines.
func splitDocuments(data string) []string {
	var docs []string
	var cur []string
	for _, ln := range strings.Split(data, "\n") {
		if strings.TrimSpace(ln) == "---" {
			docs = append(docs, strings.Join(cur, "\n"))
			cur = cur[:0]
			continue
		}
		cur = append(cur, ln)
	}
	docs = append(docs, strings.Join(cur, "\n"))
	return docs
}

type line struct {
	indent  int
	content string
	num     int
}

// scan strips comments and blank lines and records indentation.
func scan(data string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(data, "\n") {
		content := stripComment(raw)
		trimmed := strings.TrimLeft(content, " ")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("yaml: line %d: tabs are not allowed for indentation", i+1)
		}
		out = append(out, line{
			indent:  len(content) - len(trimmed),
			content: strings.TrimRight(trimmed, " "),
			num:     i + 1,
		})
	}
	return out, nil
}

// stripComment removes a trailing comment, respecting quoted strings.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inDouble {
				i++ // an escaped character never ends the string
			}
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if inSingle || inDouble {
				continue
			}
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses the node starting at the current position, whose
// lines are indented exactly `indent`.
func (p *parser) parseBlock(indent int) (any, error) {
	ln, ok := p.peek()
	if !ok || ln.indent < indent {
		return nil, fmt.Errorf("yaml: expected block at indent %d", indent)
	}
	if strings.HasPrefix(ln.content, "- ") || ln.content == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *parser) parseSequence(indent int) (any, error) {
	seq := []any{}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent || !(strings.HasPrefix(ln.content, "- ") || ln.content == "-") {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.content, "-"), " ")
		if rest == "" {
			// Item body is the nested block on following lines.
			p.pos++
			next, ok := p.peek()
			if !ok || next.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			item, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, item)
			continue
		}
		if !looksLikeMapping(rest) && !strings.HasPrefix(rest, "- ") && rest != "-" {
			// Plain scalar item.
			p.pos++
			seq = append(seq, parseScalar(rest))
			continue
		}
		// Inline item: reinterpret "- rest" as "rest" indented two
		// deeper, so "- key: value" starts a mapping whose further keys
		// sit at indent+2.
		p.lines[p.pos] = line{indent: indent + 2, content: rest, num: ln.num}
		item, err := p.parseBlock(indent + 2)
		if err != nil {
			return nil, err
		}
		seq = append(seq, item)
	}
	return seq, nil
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			break
		}
		if strings.HasPrefix(ln.content, "- ") || ln.content == "-" {
			break
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			m[key] = parseScalar(rest)
			continue
		}
		next, ok := p.peek()
		if !ok || next.indent <= indent {
			// "key:" with nothing nested — null value, except sequences
			// that k8s style often writes at the same indent as the key.
			if ok && next.indent == indent && (strings.HasPrefix(next.content, "- ") || next.content == "-") {
				v, err := p.parseSequence(indent)
				if err != nil {
					return nil, err
				}
				m[key] = v
				continue
			}
			m[key] = nil
			continue
		}
		v, err := p.parseBlock(next.indent)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("yaml: empty mapping")
	}
	return m, nil
}

// looksLikeMapping reports whether an inline sequence-item body starts a
// mapping ("key: value" or "key:") rather than being a scalar.
func looksLikeMapping(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '"' || s[0] == '\'' {
		end := quotedEnd(s)
		return end > 0 && strings.HasPrefix(s[end+1:], ":")
	}
	return strings.Contains(s, ": ") || strings.HasSuffix(s, ":")
}

// splitKey splits "key: value" / "key:"; keys may be quoted.
func splitKey(ln line) (key, rest string, err error) {
	content := ln.content
	if strings.HasPrefix(content, "\"") || strings.HasPrefix(content, "'") {
		end := quotedEnd(content)
		if end < 0 {
			return "", "", fmt.Errorf("yaml: line %d: unterminated quoted key", ln.num)
		}
		key, _ = parseScalar(content[:end+1]).(string) // a quoted scalar is a string
		content = content[end+1:]
		if !strings.HasPrefix(content, ":") {
			return "", "", fmt.Errorf("yaml: line %d: missing ':' after quoted key", ln.num)
		}
		return key, strings.TrimSpace(content[1:]), nil
	}
	idx := strings.Index(content, ":")
	if idx < 0 {
		return "", "", fmt.Errorf("yaml: line %d: expected mapping key in %q", ln.num, content)
	}
	if idx+1 < len(content) && content[idx+1] != ' ' {
		// a colon not followed by space may be part of the value (e.g.
		// image refs); find a ": " or trailing ":" instead.
		sep := strings.Index(content, ": ")
		if sep < 0 {
			if strings.HasSuffix(content, ":") {
				return strings.TrimSpace(content[:len(content)-1]), "", nil
			}
			return "", "", fmt.Errorf("yaml: line %d: expected mapping key in %q", ln.num, content)
		}
		idx = sep
	}
	return strings.TrimSpace(content[:idx]), strings.TrimSpace(content[idx+1:]), nil
}

// quotedEnd returns the index of the quote that closes the one s starts
// with, or -1. Inside double quotes a backslash escapes the next byte.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && s[0] == '"' {
			i++
		} else if s[i] == s[0] {
			return i
		}
	}
	return -1
}

// parseScalar interprets one inline value.
func parseScalar(s string) any {
	switch {
	case s == "{}":
		return map[string]any{}
	case s == "[]":
		return []any{}
	case s == "null" || s == "~":
		return nil
	case s == "true":
		return true
	case s == "false":
		return false
	}
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		if u, err := strconv.Unquote(s); err == nil && s[0] == '"' {
			return u
		}
		return s[1 : len(s)-1] // single quotes, or an escape Go rejects (YAML's \/, \e ...)
	}
	if !couldBeNumber(s) {
		return s
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	// NaN and the infinities are strings: YAML spells them .nan and .inf.
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return s
}

// couldBeNumber reports whether strconv.ParseInt(s, 10, 64) or
// strconv.ParseFloat(s, 64) might accept s. Both take an optional sign,
// then a digit or a '.' (hex floats start with "0x"); ParseFloat also
// takes the words inf, infinity and nan in any case. Both parsers
// reject every other string, and each rejection allocates its error
// value, so manifest strings such as names and image references skip
// them. FuzzNumberPrecheck holds the parsers to this.
func couldBeNumber(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.':
		return true
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
	}
	return false
}

// isNumber reports whether s parses as an int64 or a float64.
func isNumber(s string) bool {
	if !couldBeNumber(s) {
		return false
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// Marshal renders v as a YAML document. Mapping keys are emitted in
// sorted order for deterministic output.
func Marshal(v any) string {
	var b strings.Builder
	writeValue(&b, v, 0, false)
	return b.String()
}

// MarshalAll renders multiple documents separated by "---".
func MarshalAll(docs ...any) string {
	parts := make([]string, len(docs))
	for i, d := range docs {
		parts[i] = Marshal(d)
	}
	return strings.Join(parts, "---\n")
}

func writeValue(b *strings.Builder, v any, indent int, inSeq bool) {
	switch val := v.(type) {
	case map[string]any:
		if len(val) == 0 {
			b.WriteString(" {}\n")
			return
		}
		keys := make([]string, 0, len(val))
		for k := range val {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 || !inSeq {
				b.WriteString(strings.Repeat(" ", indent))
			} else {
				b.WriteString(" ")
			}
			b.WriteString(encodeKey(k))
			b.WriteString(":")
			writeChild(b, val[k], indent)
		}
	case []any:
		if len(val) == 0 {
			b.WriteString(" []\n")
			return
		}
		for _, item := range val {
			b.WriteString(strings.Repeat(" ", indent))
			b.WriteString("-")
			switch it := item.(type) {
			case map[string]any:
				writeValue(b, item, indent+2, true)
			case []any:
				if len(it) == 0 {
					b.WriteString(" []\n")
					continue
				}
				// A nested sequence goes on the following lines.
				b.WriteString("\n")
				writeValue(b, item, indent+2, false)
			default:
				b.WriteString(" ")
				b.WriteString(encodeScalar(item))
				b.WriteString("\n")
			}
		}
	default:
		b.WriteString(encodeScalar(v))
		b.WriteString("\n")
	}
}

func writeChild(b *strings.Builder, v any, indent int) {
	switch val := v.(type) {
	case map[string]any:
		if len(val) == 0 {
			b.WriteString(" {}\n")
			return
		}
		b.WriteString("\n")
		writeValue(b, val, indent+2, false)
	case []any:
		if len(val) == 0 {
			b.WriteString(" []\n")
			return
		}
		b.WriteString("\n")
		writeValue(b, val, indent, false)
	default:
		b.WriteString(" ")
		b.WriteString(encodeScalar(v))
		b.WriteString("\n")
	}
}

func encodeKey(k string) string {
	if k == "" || !plain(k) || strings.ContainsAny(k, ":#' ") {
		return strconv.Quote(k)
	}
	return k
}

// plain reports whether strconv.Quote would write s without escapes.
func plain(s string) bool {
	for _, r := range s {
		if r == '"' || r == '\\' || r == utf8.RuneError || !strconv.IsPrint(r) {
			return false
		}
	}
	return true
}

func encodeScalar(v any) string {
	switch val := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(val)
	case int:
		return strconv.Itoa(val)
	case int64:
		return strconv.FormatInt(val, 10)
	case float64:
		s := strconv.FormatFloat(val, 'g', -1, 64)
		if strings.Trim(s, "-0123456789") == "" {
			s += ".0" // an integral float must not read back as an int
		}
		return s
	case string:
		return encodeString(val)
	default:
		return fmt.Sprintf("%v", val)
	}
}

// encodeString quotes strings that would otherwise parse as another type
// or break the line grammar, and those with bytes strconv.Quote escapes.
func encodeString(s string) string {
	switch {
	case s == "", s == "null", s == "~", s == "true", s == "false", s == "{}", s == "[]", s == "-",
		isNumber(s), !plain(s),
		strings.ContainsAny(s, "#'"), strings.Contains(s, ": "), strings.HasPrefix(s, "- "),
		strings.HasPrefix(s, " "), strings.HasSuffix(s, ":"), strings.HasSuffix(s, " "):
		return strconv.Quote(s)
	}
	return s
}
