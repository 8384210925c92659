package progopt

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// unreachableFile lists the functions that nothing but tests reaches. A line
// is a function as the linker names it (import path, then F, T.M or (*T).M)
// followed by the _test.go files, relative to the repository root, that call
// it; '#' starts a comment.
const unreachableFile = "testdata/unreachable.txt"

// apiRoot is the package of the generated main that references every
// exported function and method of progopt. -overlay supplies its one file:
// the directory exists in no checkout.
const apiRoot = "reachability_apiroot"

// A decl is one non-test function or method declaration of the module.
type decl struct {
	key  string // import path "." F, T.M or (*T).M
	name string // F or M, what a caller writes
	recv string // the receiver's type name, "" for a function
	pos  token.Position
	main bool // declared in a main package
}

func (d *decl) String() string {
	if d.main {
		pkg, fn, _ := strings.Cut(d.key, ".")
		return fmt.Sprintf("%s (main.%s of binary %s)", d.key, fn, pkg)
	}
	return d.key
}

// declarations parses every non-test Go file of the module's packages, as
// `go list` selects them for this build, and returns their function and
// method declarations by key; init functions are left out. The second result
// is the import paths of the main packages.
func declarations(t *testing.T, root string) (map[string]*decl, []string) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	decls := map[string]*decl{}
	var mains []string
	fset := token.NewFileSet()
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var pkg struct {
			ImportPath, Dir, Name string
			GoFiles               []string
		}
		if err := dec.Decode(&pkg); err != nil {
			t.Fatal(err)
		}
		if pkg.Name == "main" {
			mains = append(mains, pkg.ImportPath)
		}
		for _, name := range pkg.GoFiles {
			path, err := filepath.Rel(root, filepath.Join(pkg.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || fn.Recv == nil && fn.Name.Name == "init" {
					continue
				}
				d := &decl{name: fn.Name.Name, pos: fset.Position(fn.Pos()), main: pkg.Name == "main"}
				d.key = pkg.ImportPath + "." + d.name
				if fn.Recv != nil {
					typ := fn.Recv.List[0].Type
					star, ptr := typ.(*ast.StarExpr)
					if ptr {
						typ = star.X
					}
					switch x := typ.(type) {
					case *ast.IndexExpr:
						typ = x.X
					case *ast.IndexListExpr:
						typ = x.X
					}
					d.recv = typ.(*ast.Ident).Name
					recv := d.recv
					if ptr {
						recv = "(*" + recv + ")"
					}
					d.key = pkg.ImportPath + "." + recv + "." + d.name
				}
				decls[d.key] = d
			}
		}
	}
	return decls, mains
}

// apiMain is the source of a main package that references every exported
// function and method of package progopt.
func apiMain(decls map[string]*decl) []byte {
	var refs []string
	for key, d := range decls {
		if strings.HasPrefix(key, "progopt.") && token.IsExported(d.name) &&
			(d.recv == "" || token.IsExported(d.recv)) {
			refs = append(refs, strings.Replace(key, "progopt.(*", "(*progopt.", 1))
		}
	}
	slices.Sort(refs)
	return fmt.Appendf(nil, "package main\n\nimport \"progopt\"\n\nvar api = []any{\n\t%s,\n}\n\nfunc main() { println(len(api)) }\n",
		strings.Join(refs, ",\n\t"))
}

// dumpdep runs `go build` with the linker's reachability dump on pkgs in
// the module at dir, writing the binaries into a temporary directory, and
// returns the dump. overlay, if not empty, is passed as -overlay. Inlining
// is off in the repository's packages, so a call of one of their functions
// stays a call; the standard library, which calls none of them directly,
// keeps its usual flags and so its build cache entries.
func dumpdep(t *testing.T, dir, overlay string, pkgs ...string) []byte {
	args := []string{"-C", dir, "build", "-o", t.TempDir() + string(filepath.Separator),
		"-gcflags=progopt/...=-l", "-ldflags=-dumpdep"}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	out, err := exec.Command("go", append(args, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// stripTypeArgs removes every bracketed type-argument list from a symbol.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// closure matches the name the compiler gives a function literal, a go
// statement's wrapper or a defer's, and a nested one's, inside a function.
var closure = regexp.MustCompile(`^((func|gowrap|deferwrap)\d+|\d+)$`)

// declOf returns the key of the declaration a linker symbol belongs to, or
// "" if it is no function of the module. A main package's symbols are
// "main." ones, attributed to the binary whose section the dump is in. A
// closure (F.func1, F.gowrap1, F.deferwrap1) and a method value wrapper
// (T.M-fm) count as their function; a function's data (F.arginfo1,
// F.opendefer) does not, since the linker names data that several functions
// share after any one of them.
func declOf(sym, binary string, decls map[string]*decl) string {
	sym = stripTypeArgs(sym)
	pkg := binary
	rest, ok := strings.CutPrefix(sym, "main.")
	if !ok {
		slash := strings.LastIndex(sym, "/")
		dot := strings.Index(sym[slash+1:], ".")
		if dot < 0 {
			return ""
		}
		pkg, rest = sym[:slash+1+dot], sym[slash+2+dot:]
	}
	parts := strings.Split(strings.TrimSuffix(rest, "-fm"), ".")
	for n := min(2, len(parts)); n > 0; n-- {
		key := pkg + "." + strings.Join(parts[:n], ".")
		if decls[key] == nil {
			continue
		}
		for _, p := range parts[n:] {
			if !closure.MatchString(p) {
				return ""
			}
		}
		return key
	}
	return ""
}

// reach adds every module function that a -dumpdep dump reaches to reached.
// Each binary's part of the dump starts with "# <import path>".
func reach(t *testing.T, dump []byte, decls map[string]*decl, reached map[string]bool) {
	binary := ""
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "# "); ok {
			binary = p
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if key := declOf(sym, binary, decls); key != "" {
				reached[key] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// mentions reports whether the Go file at path has an identifier name.
func mentions(path, name string) (bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return false, err
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found, nil
}

// TestReachability fails on a non-test function that neither a binary of the
// repository (every main package of the module, and benchmark/) nor the
// exported API of package progopt reaches, unless unreachableFile lists it
// with the tests that call it. A listed function that something reaches now,
// or that is no longer declared, fails too, so the list only gets shorter.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the repository")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls, mains := declarations(t, root)

	// The exported API is a root of its own: a generated main references
	// all of it.
	tmp := t.TempDir()
	src := filepath.Join(tmp, "api.go")
	overlay := filepath.Join(tmp, "overlay.json")
	ov, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, apiRoot, "main.go"): src},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, apiMain(decls), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}
	// benchmark/ builds second, when the packages it shares with the module
	// are in the build cache.
	reached := map[string]bool{}
	reach(t, dumpdep(t, root, overlay, append(mains, "./"+apiRoot)...), decls, reached)
	reach(t, dumpdep(t, filepath.Join(root, "benchmark"), "", "."), decls, reached)

	b, err := os.ReadFile(unreachableFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for i, line := range strings.Split(string(b), "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		at, key := fmt.Sprintf("%s:%d", unreachableFile, i+1), fields[0]
		d := decls[key]
		switch {
		case listed[key]:
			t.Errorf("%s: %s is listed twice", at, key)
		case d == nil:
			t.Errorf("%s: %s is not declared: delete the line", at, key)
		case reached[key]:
			t.Errorf("%s: %s is reached now: delete the line", at, key)
		case len(fields) == 1:
			t.Errorf("%s: %s names no test that calls it: delete the function", at, key)
		}
		listed[key] = true
		if d == nil {
			continue
		}
		for _, test := range fields[1:] {
			if !strings.HasSuffix(test, "_test.go") {
				t.Errorf("%s: %s is not a _test.go file", at, test)
				continue
			}
			ok, err := mentions(test, d.name)
			switch {
			case err != nil:
				t.Errorf("%s: %s: %v", at, test, err)
			case !ok:
				t.Errorf("%s: %s does not call %s", at, test, d.name)
			}
		}
	}

	var unlisted []*decl
	for key, d := range decls {
		if !reached[key] && !listed[key] {
			unlisted = append(unlisted, d)
		}
	}
	slices.SortFunc(unlisted, func(a, b *decl) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Line-b.pos.Line)
	})
	for _, d := range unlisted {
		t.Errorf("%s: %s: no binary and no exported API reaches it: delete it (%s only gets shorter)",
			d.pos, d, unreachableFile)
	}
	t.Logf("%d functions declared, %d reached, %d listed in %s", len(decls), len(reached), len(listed), unreachableFile)
}
