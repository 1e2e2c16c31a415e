package senn

// The documents are held to the tree they describe. EXPERIMENTS.md and
// DESIGN.md quote the committed results/ files instead of restating them,
// and every test name, DESIGN section and EXPERIMENTS heading a document
// cites exists. Run these alone with `go test -run TestDocs .`.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// describingDocs are the documents that state the current system.
// CHANGES.md, ROADMAP.md and results/campaigns/ are history and exempt.
var describingDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// quotedBlock is a fenced block whose info string names a results/ file.
type quotedBlock struct {
	doc   string
	line  int // 1-based line of the opening fence
	file  string
	lines []string
}

func splitLines(b []byte) []string {
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return splitLines(b)
}

// quotedBlocks returns every ```results/<file> block in the describing docs.
func quotedBlocks(t *testing.T) []quotedBlock {
	t.Helper()
	var blocks []quotedBlock
	for _, doc := range describingDocs {
		lines := readLines(t, doc)
		for i := 0; i < len(lines); i++ {
			info, ok := strings.CutPrefix(lines[i], "```")
			if !ok || !strings.HasPrefix(info, "results/") {
				continue
			}
			b := quotedBlock{doc: doc, line: i + 1, file: strings.TrimSpace(info)}
			for i++; i < len(lines) && lines[i] != "```"; i++ {
				b.lines = append(b.lines, lines[i])
			}
			if i == len(lines) {
				t.Errorf("%s:%d: block quoting %s is never closed", doc, b.line, b.file)
			}
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// paragraphs splits a file at its empty lines. A paragraph is one
// sub-figure: its first line is the title (`Figure 9a — Los Angeles …`).
func paragraphs(lines []string) [][]string {
	var ps [][]string
	start := 0
	for i := 0; i <= len(lines); i++ {
		if i == len(lines) || lines[i] == "" {
			if i > start {
				ps = append(ps, lines[start:i])
			}
			start = i + 1
		}
	}
	return ps
}

// checkQuote reports the first line of a block that is not the named
// file's own: each blank-separated group of the block must open with a
// sub-figure's title and hold only lines of that sub-figure, in the
// file's order, with the groups themselves in file order.
func checkQuote(block, file []string) string {
	ps := paragraphs(file)
	next := 0 // first paragraph a group may open
	for _, group := range paragraphs(block) {
		p := slices.IndexFunc(ps[next:], func(par []string) bool { return par[0] == group[0] })
		if p < 0 {
			return "opens with " + strconv.Quote(group[0]) + ", which is not the title of a later sub-figure of the file"
		}
		par := ps[next+p]
		next += p + 1
		at := 0 // the title matched par[0]
		for _, l := range group[1:] {
			if j := slices.Index(par[at+1:], l); j >= 0 {
				at += j + 1
				continue
			}
			switch {
			case slices.Contains(par, l):
				return strconv.Quote(l) + " is out of the file's order"
			case slices.Contains(file, l):
				return strconv.Quote(l) + " comes from a different sub-figure than " + strconv.Quote(group[0])
			default:
				return strconv.Quote(l) + " is not in the file"
			}
		}
	}
	return ""
}

func TestDocsQuotesMatchResults(t *testing.T) {
	for _, b := range quotedBlocks(t) {
		file, err := os.ReadFile(b.file)
		if err != nil {
			t.Errorf("%s:%d: %v", b.doc, b.line, err)
			continue
		}
		if len(b.lines) == 0 {
			t.Errorf("%s:%d: empty block quoting %s", b.doc, b.line, b.file)
			continue
		}
		if msg := checkQuote(b.lines, splitLines(file)); msg != "" {
			t.Errorf("%s:%d: block quoting %s: %s", b.doc, b.line, b.file, msg)
		}
	}
}

func TestDocsQuoteEveryResult(t *testing.T) {
	quoted := map[string]bool{}
	for _, b := range quotedBlocks(t) {
		quoted[b.file] = true
	}
	files, err := filepath.Glob("results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !quoted[f] {
			t.Errorf("%s is quoted by no ```%s block in %v", f, f, describingDocs)
		}
	}
}

// TestDocsCheckQuoteRejects pins each way a quote can go wrong on a
// two-sub-figure file.
func TestDocsCheckQuoteRejects(t *testing.T) {
	file := []string{"Figure 1a", "k  pages", "4  5.13", "8  5.26", "", "Figure 1b", "k  pages", "4  5.10"}
	for _, c := range []struct {
		block []string
		want  string
	}{
		{[]string{"Figure 1a", "4  5.13", "8  5.26", "", "Figure 1b", "4  5.10"}, ""},
		{[]string{"Figure 1a", "4  5.14"}, "is not in the file"},
		{[]string{"Figure 1a", "8  5.26", "4  5.13"}, "out of the file's order"},
		{[]string{"Figure 1a", "4  5.10"}, "different sub-figure"},
		{[]string{"4  5.13"}, "not the title"},
		{[]string{"Figure 1b", "", "Figure 1a"}, "not the title"},
	} {
		got := checkQuote(c.block, file)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("checkQuote(%q) = %q, want %q", c.block, got, c.want)
		}
	}
}

var (
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testFuncCite = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
)

// TestDocsCitedTestsExist: a cited Test…/Benchmark…/Fuzz… name is a
// function in some _test.go file, or a prefix of one (`-run 'TestResolve|…'`,
// `TestParallelMatchesSequential*`).
func TestDocsCitedTestsExist(t *testing.T) {
	defined := definedTests(t)
	for _, doc := range describingDocs {
		for i, l := range readLines(t, doc) {
			for _, name := range testFuncCite.FindAllString(l, -1) {
				if !slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) }) {
					t.Errorf("%s:%d: cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

// definedTests lists every Test, Benchmark and Fuzz function the _test.go
// files define.
func definedTests(t *testing.T) []string {
	t.Helper()
	var defined []string
	for _, path := range sourceFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			defined = append(defined, m[1])
		}
	}
	return defined
}

// TestDocsProdcoverRecord holds results/PRODCOVER.txt to the tree: every
// function it lists is still declared in the file it names, every entry
// carries one of the five dispositions, and every defensive entry names a
// test, benchmark or fuzz function that exists. A change that deletes or
// moves a listed function without re-running scripts/prodcover.sh fails here.
func TestDocsProdcoverRecord(t *testing.T) {
	defined := definedTests(t)
	dispositions := []string{"facade", "bench-pinned", "referee", "defensive", "dead"}
	for i, line := range readLines(t, "results/PRODCOVER.txt") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		head, _, _ := strings.Cut(line, " --")
		f := strings.Fields(head)
		if len(f) < 3 || !slices.Contains(dispositions, f[2]) {
			t.Errorf("PRODCOVER.txt:%d: %q carries none of the dispositions %v", i+1, line, dispositions)
			continue
		}
		if f[2] == "defensive" && (len(f) != 4 || !slices.Contains(defined, f[3])) {
			t.Errorf("PRODCOVER.txt:%d: defensive entry %s names no existing test", i+1, f[1])
		}
		src, err := os.ReadFile(f[0])
		if err != nil {
			t.Errorf("PRODCOVER.txt:%d: %v", i+1, err)
			continue
		}
		decl := `(?m)^func ` + regexp.QuoteMeta(f[1]) + `[[(]`
		if recv, name, ok := strings.Cut(f[1], "."); ok {
			decl = `(?m)^func \((?:\w+ )?\*?` + recv + `(?:\[[^]]*\])?\) ` + name + `[[(]`
		}
		if !regexp.MustCompile(decl).Match(src) {
			t.Errorf("PRODCOVER.txt:%d: %s no longer declares %s; re-run scripts/prodcover.sh", i+1, f[0], f[1])
		}
	}
}

var (
	// A reference may break across lines, inside a Go or shell comment too.
	designRef      = regexp.MustCompile(`DESIGN(?:\.md)?[\s/#]*§\s*(\d+)`)
	experimentsRef = regexp.MustCompile(`EXPERIMENTS(?:\.md)?,?[\s/#]*"([^"]+)"`)
	campaignRef    = regexp.MustCompile(`results/campaigns/(PR-\d+\.md)(?:,[\s/#]*"([^"]+)")?`)
	designHeading  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	anyHeading     = regexp.MustCompile(`(?m)^#+ (.+)$`)
)

// sourceFiles lists the repository's own files: no hidden directory but
// .github (so no build cache), no analyzer fixtures.
func sourceFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != "." && name != ".github" && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// referringFiles are the files whose DESIGN/EXPERIMENTS references must
// resolve: the describing docs, the Go sources, the scripts and CI.
func referringFiles(t *testing.T) []string {
	t.Helper()
	files := slices.Clone(describingDocs)
	for _, path := range sourceFiles(t) {
		if path == "docs_test.go" { // spells the patterns, refers to nothing
			continue
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".sh") || strings.HasPrefix(path, ".github/") {
			files = append(files, path)
		}
	}
	return files
}

// TestDocsCrossReferencesResolve: `DESIGN §N` names a numbered DESIGN
// heading; `EXPERIMENTS "X"` starts an EXPERIMENTS heading or a campaign's
// title; `results/campaigns/PR-NN.md, "X"` names a file that contains X.
func TestDocsCrossReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	// An EXPERIMENTS reference may name a heading of the file or the title
	// of a campaign moved out of it.
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, m := range anyHeading.FindAllStringSubmatch(string(experiments), -1) {
		headings = append(headings, m[1])
	}
	campaigns := map[string]string{}
	paths, err := filepath.Glob("results/campaigns/PR-*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		campaigns[filepath.Base(p)] = string(b)
		if m := anyHeading.FindStringSubmatch(string(b)); m != nil {
			headings = append(headings, m[1])
		}
	}
	for _, path := range referringFiles(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		at := func(i int) string { return path + ":" + strconv.Itoa(1+strings.Count(src[:i], "\n")) }
		for _, m := range designRef.FindAllStringSubmatchIndex(src, -1) {
			if n := src[m[2]:m[3]]; !sections[n] {
				t.Errorf("%s: DESIGN §%s has no `## %s.` heading", at(m[0]), n, n)
			}
		}
		for _, m := range experimentsRef.FindAllStringSubmatchIndex(src, -1) {
			name := strings.Join(strings.Fields(src[m[2]:m[3]]), " ")
			if !slices.ContainsFunc(headings, func(h string) bool { return strings.HasPrefix(h, name) }) {
				t.Errorf("%s: EXPERIMENTS %q is neither an EXPERIMENTS heading nor a campaign's", at(m[0]), name)
			}
		}
		for _, m := range campaignRef.FindAllStringSubmatchIndex(src, -1) {
			text, ok := campaigns[src[m[2]:m[3]]]
			switch {
			case !ok:
				t.Errorf("%s: %s does not exist", at(m[0]), src[m[0]:m[3]])
			case m[4] >= 0 && !strings.Contains(text, src[m[4]:m[5]]):
				t.Errorf("%s: %s has no %q", at(m[0]), src[m[0]:m[3]], src[m[4]:m[5]])
			}
		}
	}
}
