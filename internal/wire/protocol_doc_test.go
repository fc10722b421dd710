package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docSection returns the body of the docs/PROTOCOL.md section whose
// heading starts with prefix, up to the next heading.
func docSection(t *testing.T, doc, prefix string) string {
	t.Helper()
	lines := strings.Split(doc, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(lines[end], "#") {
			end++
		}
		return strings.Join(lines[i+1:end], "\n")
	}
	t.Fatalf("PROTOCOL.md has no section %q", prefix)
	return ""
}

// byteTable collects name → byte pairs matched by re (two groups).
func byteTable(t *testing.T, text string, re *regexp.Regexp) map[string]byte {
	t.Helper()
	out := map[string]byte{}
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		b, err := strconv.ParseUint(m[2], 10, 8)
		if err != nil {
			t.Fatalf("PROTOCOL.md: byte %q of %q: %v", m[2], m[1], err)
		}
		if _, dup := out[m[1]]; dup {
			t.Fatalf("PROTOCOL.md lists %q twice", m[1])
		}
		out[m[1]] = byte(b)
	}
	return out
}

// wireConstants returns the string values of wire.go's constants whose
// names start with prefix.
func wireConstants(t *testing.T, prefix string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, prefix) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("constant %s is not a string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v)
			}
		}
	}
	slices.Sort(vals)
	return vals
}

// TestProtocolDocMatchesCodec keeps docs/PROTOCOL.md and this package
// from drifting apart, in both directions: §3.1's op table and §3.3's
// code bytes must equal binOps and binCodes, §7 must list exactly the
// codes binCodes encodes, and wire.go's Op* and Code* constants must be
// exactly the names those tables encode.
func TestProtocolDocMatchesCodec(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	sortedKeys := func(m map[string]byte) []string { return slices.Sorted(maps.Keys(m)) }

	ops := byteTable(t, docSection(t, doc, "### 3.1 "), regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| (\\d+) \\|"))
	if !maps.Equal(ops, binOps) {
		t.Errorf("PROTOCOL.md §3.1 ops %v, binOps %v", ops, binOps)
	}
	codes := byteTable(t, docSection(t, doc, "### 3.3 "), regexp.MustCompile("`([a-z-]+)`=(\\d+)"))
	if !maps.Equal(codes, binCodes) {
		t.Errorf("PROTOCOL.md §3.3 codes %v, binCodes %v", codes, binCodes)
	}
	var table []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\|").FindAllStringSubmatch(docSection(t, doc, "## 7. "), -1) {
		table = append(table, m[1])
	}
	slices.Sort(table)
	if want := sortedKeys(binCodes); !slices.Equal(table, want) {
		t.Errorf("PROTOCOL.md §7 lists codes %v, binCodes encodes %v", table, want)
	}

	if got, want := wireConstants(t, "Op"), sortedKeys(binOps); !slices.Equal(got, want) {
		t.Errorf("Op* constants %v, binOps encodes %v", got, want)
	}
	if got, want := wireConstants(t, "Code"), sortedKeys(binCodes); !slices.Equal(got, want) {
		t.Errorf("Code* constants %v, binCodes encodes %v", got, want)
	}
}
