package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for exit-code tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const dirtySrc = `// Package tmpmod is a CLI-test fixture.
package tmpmod

// Eq compares floats exactly — a seeded violation.
func Eq(x, y float64) bool { return x == y }
`

// TestExitCodeFindings: a surviving diagnostic exits 1, and the finding
// prints in file:line:col form.
func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{"eq.go": dirtySrc})
	code, out, errb := runCLI(t, "-C", dir, "-rules", "floatcompare", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "floatcompare") || !strings.Contains(out, "eq.go:5") {
		t.Errorf("stdout should carry the finding, got: %s", out)
	}
	if !strings.Contains(errb, "1 finding(s)") {
		t.Errorf("stderr should summarize the finding count, got: %s", errb)
	}
}

// TestExitCodeClean: nothing to report exits 0.
func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{"eq.go": dirtySrc})
	code, out, _ := runCLI(t, "-C", dir, "-rules", "noglobalrand", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (clean)\nstdout: %s", code, out)
	}
}

// TestExitCodeInternalErrors: trajlint's own failures — bad flags,
// unknown rules, unloadable packages, missing module — exit 2, never 1,
// so CI can tell "the gate fired" from "the gate is broken". trajlint
// has no -fix, -cache or -jobs: each is a bad flag.
func TestExitCodeInternalErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{"eq.go": dirtySrc})
	cases := []struct {
		name string
		args []string
	}{
		{"unknown rule", []string{"-C", dir, "-rules", "nosuchrule", "./..."}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"missing package", []string{"-C", dir, "./nope/..."}},
		{"no module", []string{"-C", t.TempDir(), "./..."}},
		{"fix flag", []string{"-C", dir, "-fix", "./..."}},
		{"cache flag", []string{"-C", dir, "-cache", t.TempDir(), "./..."}},
		{"jobs flag", []string{"-C", dir, "-jobs", "2", "./..."}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out, errb)
			}
		})
	}
}

// TestJSONOutput: -json emits a machine-readable array on stdout (still
// exit 1 on findings) and an empty array, not null, when clean.
func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"eq.go": dirtySrc})
	code, out, _ := runCLI(t, "-C", dir, "-rules", "floatcompare", "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, `"rule": "floatcompare"`) {
		t.Errorf("JSON output should carry the finding, got: %s", out)
	}
	code, out, _ = runCLI(t, "-C", dir, "-rules", "noglobalrand", "-json", "./...")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json run: exit %d, stdout %q; want 0 and []", code, out)
	}
}

// TestStatsFlag: -stats reports the package count and the per-rule
// finding counts on stderr, next to the findings on stdout.
func TestStatsFlag(t *testing.T) {
	dir := writeModule(t, map[string]string{"eq.go": dirtySrc})
	code, out, errb := runCLI(t, "-C", dir, "-rules", "floatcompare", "-stats", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if !strings.Contains(errb, "1 package(s)") || !strings.Contains(errb, "per-rule stats") {
		t.Errorf("-stats should report the package count and a per-rule table, got: %s", errb)
	}
	if !strings.Contains(errb, "floatcompare") || !strings.Contains(errb, "1 finding(s)") {
		t.Errorf("-stats should count the floatcompare finding, got: %s", errb)
	}
	if !strings.Contains(out, "floatcompare") {
		t.Errorf("findings should still print, got: %s", out)
	}
}
