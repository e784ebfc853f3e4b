package main

import (
	"path/filepath"
	"testing"

	trustddl "github.com/trustddl/trustddl"
)

func TestInferFreshWeights(t *testing.T) {
	if err := run([]string{"-n", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestInferFromSavedModel(t *testing.T) {
	arch := trustddl.PaperArch()
	weights, err := arch.InitWeights(5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.tddl")
	if err := trustddl.SaveModel(path, arch, weights); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", path, "-n", "1", "-byzantine", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestInferRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-byzantine", "7", "-n", "1"}); err == nil {
		t.Fatal("byzantine 7 accepted")
	}
	if err := run([]string{"-model", "/nonexistent"}); err == nil {
		t.Fatal("missing model accepted")
	}
}
