package stats

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFormulasSpelledOnce is the one-spelling guard: outside this
// package's table file, no non-test Go file under internal/, cmd/ or
// examples/ spells a row's formula — code renders the row, and comments
// cite its id. Rows whose formula is a lone variable or the linear IN/p
// are too short to guard. Two fragments of the old hand spellings are
// refused everywhere, the table file included.
func TestFormulasSpelledOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	table := filepath.Join(root, "internal", "stats", "bounds.go")
	var guarded []string
	for _, r := range bounds {
		if f := r.Expr.String(); f != linear.text && strings.ContainsAny(f, "+/") && !slices.Contains(guarded, f) {
			guarded = append(guarded, f)
		}
	}
	fragments := []string{"IN·OUT", "√(OUT/p)"}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || d.Name() == "bench" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text := string(src)
			for _, f := range fragments {
				if strings.Contains(text, f) {
					t.Errorf("%s spells the fragment %q: render or cite a stats row instead", path, f)
				}
			}
			if path == table {
				return nil
			}
			for _, f := range guarded {
				if strings.Contains(text, f) {
					t.Errorf("%s spells the formula %q: render or cite its stats row instead", path, f)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(guarded) < 8 {
		t.Fatalf("only %d formulas guarded: %q", len(guarded), guarded)
	}
}
