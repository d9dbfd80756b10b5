package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestUnknownExperimentRejected(t *testing.T) {
	err := run([]string{"-exp", "ablaton-kernel"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "ablaton-kernel"`) {
		t.Fatalf("typo in -exp: err = %v, want an unknown-experiment error", err)
	}
}

// TestQuickRunWritesNoFile runs an experiment that has a committed record
// in quick mode: it must print its series and leave the directory as it was,
// so a smoke run can never overwrite a full-size artifact.
func TestQuickRunWritesNoFile(t *testing.T) {
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"-exp", "ablation-kernel", "-repeats", "1", "-shots", "32"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(ablation-kernel completed in") {
		t.Fatalf("experiment did not run:\n%s", out.String())
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("quick run wrote %s", e.Name())
	}
}
