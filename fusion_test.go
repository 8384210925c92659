package progopt

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedArchs are the architectures whose compilers fuse x*y + z into one
// multiply-add that rounds once. amd64 never fuses; arm64 and ppc64le cover
// every site riscv64 fuses too (s390x fused none when this was written).
var fusedArchs = []string{"arm64", "ppc64le"}

// fusedOp matches the mnemonic of a fused floating-point instruction:
// arm64's FMADDD, FNMSUBS…, ppc64's FMADD, FNMSUB….
var fusedOp = regexp.MustCompile(`^FN?M(ADD|SUB)[DS]?$`)

// fusedSites returns the file:line, relative to root, of every fused
// instruction in a -S listing, sorted and without repeats. An instruction
// line reads "\t0x0074 00116 (file.go:96)\tFMADDD\tF2, F0, F0, F2".
func fusedSites(root string, listing []byte) []string {
	var sites []string
	for line := range bytes.Lines(listing) {
		f := bytes.SplitN(line, []byte("\t"), 4)
		if len(f) < 3 || !fusedOp.Match(bytes.TrimSpace(f[2])) {
			continue
		}
		pos := f[1]
		i, j := bytes.LastIndexByte(pos, '('), bytes.LastIndexByte(pos, ')')
		if i < 0 || j < i {
			continue
		}
		file := string(pos[i+1 : j])
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		sites = append(sites, file)
	}
	slices.Sort(sites)
	return slices.Compact(sites)
}

// TestNoFusedFloatOps holds bit-identity on every GOARCH: the Go
// specification lets a compiler fuse x*y + z, which rounds once where
// amd64 rounds twice, so a near-tie in the estimator's objective or an
// order's cost could decide differently and move every golden downstream.
// An explicit float64(x*y) conversion rounds and prevents the fusion. The
// test cross-compiles the module's non-test packages with -gcflags=-S and
// fails on any fused instruction, naming its source line. The build cache
// replays a cached package's listing, so a warm run takes about a second per
// architecture; a cold one first compiles the standard library for it.
func TestNoFusedFloatOps(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The matcher fires on the forms both compilers print.
	for _, bad := range []string{
		"\t0x0074 00116 (" + filepath.Join(root, "x.go") + ":96)\tFMADDD\tF2, F0, F0, F2\n",
		"\t0x03a0 00928 (" + filepath.Join(root, "x.go") + ":96)\tFMSUB\tF0, F3, F1, F0\n",
		"\t0x0064 00100 (" + filepath.Join(root, "x.go") + ":96)\tFNMSUBD\tF1, F3, F2, F1\n",
	} {
		if got := fusedSites(root, []byte(bad)); !slices.Equal(got, []string{"x.go:96"}) {
			t.Fatalf("fusedSites(%q) = %v, want [x.go:96]", bad, got)
		}
	}
	if got := fusedSites(root, []byte("\t0x0010 00016 (x.go:3)\tFMULD\tF1, F2, F3\n")); len(got) != 0 {
		t.Fatalf("a plain multiply matched: %v", got)
	}

	for _, arch := range fusedArchs {
		cmd := exec.Command("go", "build", "-gcflags=-S", "./...")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "GOOS=linux", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build -gcflags=-S ./...: %v\n%s", arch, err, tail(out))
		}
		if sites := fusedSites(root, out); len(sites) > 0 {
			t.Errorf("GOARCH=%s fuses a floating-point multiply-add at %d lines; wrap each product in float64(...):\n\t%s",
				arch, len(sites), strings.Join(sites, "\n\t"))
		}
	}
}

// tail returns the last lines of a failed build's output: a -S listing
// runs to hundreds of thousands of lines before the error.
func tail(out []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) > 40 {
		lines = lines[len(lines)-40:]
	}
	return []byte(strings.Join(lines, "\n"))
}
