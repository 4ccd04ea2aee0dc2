package main

import (
	"os"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallJob(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "cd", "-nodes", "4", "-iters", "3",
		"-ft", "migration", "-chaos", "crash@1b=1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVertexCutJob(t *testing.T) {
	err := run([]string{
		"-dataset", "gweb", "-algo", "pagerank", "-mode", "vertexcut",
		"-partitioner", "grid", "-nodes", "4", "-iters", "2", "-ft", "none",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointJob(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "pagerank", "-nodes", "4", "-iters", "4",
		"-ft", "checkpoint", "-ckpt-interval", "2", "-chaos", "crash@3b=1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoggedJob(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "pagerank", "-nodes", "4", "-iters", "5",
		"-ft", "logged", "-compact-every", "2", "-chaos", "crash@3b=1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChaosFlag(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "pagerank", "-nodes", "6", "-iters", "6",
		"-k", "2", "-ft", "migration",
		"-chaos", "crash@2b=1|crashrec@migration:repair=4|slow@1=0>3x4|delay@3=0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "diagonal"},
		{"-ft", "prayer"},
		{"-partitioner", "vibes"},
		{"-dataset", "nope", "-iters", "1"},
		{"-algo", "sort", "-iters", "1"},
		{"-chaos", "crash@2=1"},
		{"-chaos", "boom@2b=1", "-iters", "1"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestServeFlag(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "pagerank", "-nodes", "6", "-iters", "5",
		"-serve", "-queries", "200", "-query-seed", "7", "-topk", "5",
		"-chaos", "crash@2b=1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJSONFlag(t *testing.T) {
	err := run([]string{
		"-dataset", "dblp", "-algo", "pagerank", "-nodes", "4", "-iters", "2",
		"-json", "-serve", "-queries", "50",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParsePartitioner(t *testing.T) {
	for _, s := range []string{"hash", "fennel", "ldg", "random", "grid", "hybrid", "oblivious"} {
		if _, err := parsePartitioner(s); err != nil {
			t.Errorf("%s rejected: %v", s, err)
		}
	}
}

func TestInputFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.txt"
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n2 3\n3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-input", path, "-algo", "pagerank", "-nodes", "2", "-iters", "2", "-ft", "none"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", dir + "/missing.txt", "-iters", "1"}); err == nil {
		t.Error("missing input accepted")
	}
}
