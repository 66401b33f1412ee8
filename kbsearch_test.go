package kbtable

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestKBSearchLocalMatchesServer runs the kbsearch CLI over the paper's
// Figure 1 twice per output format: once on a local engine over a saved
// .kb file, once with -server against a kbserve process serving the same
// file. The answer blocks (rank, score, row count, pattern, table) must
// be byte-identical, and -algo auto -explain must name the same resolved
// algorithm both ways.
func TestKBSearchLocalMatchesServer(t *testing.T) {
	kb := filepath.Join(t.TempDir(), "fig1.kb")
	if err := buildFig1Public(t).Save(kb); err != nil {
		t.Fatal(err)
	}
	bin := buildCommand(t, "kbsearch")
	srv := startKBServe(t, buildKBServe(t), "-kb", kb)
	defer srv.kill()

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(args, "database software company revenue")...).Output()
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				t.Fatalf("kbsearch %v: %v\n%s", args, err, ee.Stderr)
			}
			t.Fatalf("kbsearch %v: %v", args, err)
		}
		return string(out)
	}
	// answers cuts the output down to its answer blocks: everything from
	// the first answer's header on.
	answers := func(out string) string {
		t.Helper()
		i := strings.Index(out, "\n#1 ")
		if i < 0 {
			t.Fatalf("no answers in kbsearch output:\n%s", out)
		}
		return out[i:]
	}
	for _, format := range []string{"table", "csv", "json", "md"} {
		local := answers(run("-kb", kb, "-format", format))
		remote := answers(run("-server", srv.base, "-format", format))
		if local != remote {
			t.Errorf("-format %s: local and -server answers differ\nlocal:\n%s\nserver:\n%s", format, local, remote)
		}
	}

	resolved := regexp.MustCompile(`(?m)^plan: algorithm=(\S+) auto=true$`)
	algo := func(out string) string {
		t.Helper()
		m := resolved.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no auto plan line in kbsearch -explain output:\n%s", out)
		}
		return m[1]
	}
	local := algo(run("-kb", kb, "-algo", "auto", "-explain"))
	if remote := algo(run("-server", srv.base, "-algo", "auto", "-explain")); local != remote {
		t.Errorf("-algo auto -explain resolved to %s locally and %s through -server", local, remote)
	}
}
