package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONOutputShape pins the -json schema: map of package ID to map of
// analyzer name to diagnostics, each with a file:line:col position string
// and a message. The fixture package under testdata carries exactly one
// deliberate wirebounds violation.
func TestJSONOutputShape(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-json", "./testdata/jsonpkg"}, &out)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (diagnostics reported); output: %s", code, out.String())
	}

	var got map[string]map[string][]jsonDiag
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not the documented JSON shape: %v\n%s", err, out.String())
	}
	if len(got) != 1 {
		t.Fatalf("got %d package entries, want 1: %v", len(got), got)
	}
	for pkgID, byAnalyzer := range got {
		if !strings.HasSuffix(pkgID, "testdata/jsonpkg") {
			t.Errorf("package key %q does not end in testdata/jsonpkg", pkgID)
		}
		diags, ok := byAnalyzer["wirebounds"]
		if !ok {
			t.Fatalf("no wirebounds entry for %s: %v", pkgID, byAnalyzer)
		}
		if len(diags) != 1 {
			t.Fatalf("got %d wirebounds diagnostics, want 1: %v", len(diags), diags)
		}
		d := diags[0]
		if !strings.Contains(d.Posn, "jsonpkg.go:") {
			t.Errorf("Posn %q does not reference jsonpkg.go", d.Posn)
		}
		// file:line:col — two colon-separated numbers after the file name.
		if parts := strings.Split(d.Posn, ":"); len(parts) < 3 {
			t.Errorf("Posn %q is not file:line:col", d.Posn)
		}
		if !strings.Contains(d.Message, "no dominating bound check") {
			t.Errorf("Message %q does not describe the unbounded make", d.Message)
		}
	}
}

// TestJSONCleanPackage pins the empty shape: a clean package yields "{}"
// and exit 0.
func TestJSONCleanPackage(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-json", "imitator/internal/bufpool"}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output: %s", code, out.String())
	}
	if s := strings.TrimSpace(out.String()); s != "{}" {
		t.Errorf("clean-package output = %q, want {}", s)
	}
}
