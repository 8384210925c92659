package progopt

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// surfaceOf lists what a user of the package can call or set, and the ledger
// it reads back: the exported methods of the facade types and the fields of
// the option structs and of Ledger, one sorted "Type.Name" line each.
func surfaceOf() []string {
	var out []string
	for _, v := range []any{(*Engine)(nil), (*Plan)(nil), (*Server)(nil), (*Ticket)(nil), (*Dataset)(nil), (*Query)(nil)} {
		t := reflect.TypeOf(v)
		// reflect lists exported methods only.
		for i := 0; i < t.NumMethod(); i++ {
			out = append(out, "*"+t.Elem().Name()+"."+t.Method(i).Name)
		}
	}
	for _, v := range []any{Config{}, ServerConfig{}, ExecOptions{}, Progressive{}, StorageConfig{}, TraceOptions{}, Ledger{}} {
		t := reflect.TypeOf(v)
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				out = append(out, t.Name()+"."+f.Name)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestPublicSurface pins what the package ships against testdata/surface.txt,
// so a re-grown wrapper or a new knob is a reviewed edit of that file, not a
// side effect of another change.
func TestPublicSurface(t *testing.T) {
	raw, err := os.ReadFile("testdata/surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	got := surfaceOf()
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("%s is exported but not listed in testdata/surface.txt", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s is listed in testdata/surface.txt but no longer exported", name)
		}
	}
}
