package dfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"imitator/internal/costmodel"
)

func newDFS(t *testing.T) *DFS {
	t.Helper()
	d, err := New(4, costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteRead(t *testing.T) {
	d := newDFS(t)
	cost := d.Write(0, "ckpt/0/node0", []byte("hello"))
	if cost <= 0 {
		t.Error("write cost should be positive")
	}
	data, rcost, err := d.Read(1, "ckpt/0/node0")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("read %q", data)
	}
	if rcost <= 0 {
		t.Error("read cost should be positive")
	}
}

func TestReadMissing(t *testing.T) {
	d := newDFS(t)
	if _, _, err := d.Read(0, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestWriteReplaces(t *testing.T) {
	d := newDFS(t)
	d.Write(0, "f", []byte("one"))
	d.Write(0, "f", []byte("two"))
	data, _, _ := d.Read(0, "f")
	if string(data) != "two" {
		t.Errorf("got %q", data)
	}
}

func TestAppend(t *testing.T) {
	d := newDFS(t)
	d.Append(0, "log", []byte("a"))
	d.Append(0, "log", []byte("b"))
	data, _, _ := d.Read(0, "log")
	if string(data) != "ab" {
		t.Errorf("got %q", data)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := newDFS(t)
	d.Write(0, "f", []byte("abc"))
	data, _, _ := d.Read(0, "f")
	data[0] = 'z'
	again, _, _ := d.Read(0, "f")
	if string(again) != "abc" {
		t.Error("Read leaked internal storage")
	}
}

// TestWriteKeepsInput: Write takes ownership of the slice it is given and
// stores it without a copy, capped at its length.
func TestWriteKeepsInput(t *testing.T) {
	d := newDFS(t)
	buf := make([]byte, 3, 8)
	copy(buf, "abc")
	d.Write(0, "f", buf)
	stored := d.files["f"]
	if &stored[0] != &buf[0] {
		t.Error("Write copied the caller's slice")
	}
	if cap(stored) != len(buf) {
		t.Errorf("stored cap = %d, want %d (capped at the length)", cap(stored), len(buf))
	}
}

// TestAppendLeavesArenaNeighbour: two files written as adjacent capped
// sub-slices of one arena (as load writes a node's edge-ckpt files) stay
// apart when the first is appended to, as Migration does when it re-persists
// migrated edges.
func TestAppendLeavesArenaNeighbour(t *testing.T) {
	d := newDFS(t)
	arena := []byte("aaaabbbb")
	d.Write(0, "first", arena[0:4:4])
	d.Write(0, "second", arena[4:8:8])
	d.Append(0, "first", []byte("cccc"))
	first, _, _ := d.Read(0, "first")
	second, _, _ := d.Read(0, "second")
	if string(first) != "aaaacccc" {
		t.Errorf("first = %q, want %q", first, "aaaacccc")
	}
	if string(second) != "bbbb" || string(arena[4:]) != "bbbb" {
		t.Errorf("second = %q, arena tail = %q: Append wrote into the neighbour file", second, arena[4:])
	}
	// Write caps what it stores even when the caller did not.
	d.Write(0, "loose", arena[0:2])
	d.Append(0, "loose", []byte("zz"))
	if string(arena[:4]) != "aaaa" {
		t.Errorf("arena head = %q: Append wrote past an uncapped file", arena[:4])
	}
}

func TestExistsSizeDelete(t *testing.T) {
	d := newDFS(t)
	d.Write(0, "f", []byte("abcd"))
	if sz, err := d.Size("f"); err != nil || sz != 4 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	d.Delete("f")
	if _, _, err := d.Read(0, "f"); !errors.Is(err, ErrNotFound) {
		t.Error("Read after delete should be ErrNotFound")
	}
	if got := d.List("f"); len(got) != 0 {
		t.Errorf("List after delete = %v", got)
	}
	if _, err := d.Size("f"); !errors.Is(err, ErrNotFound) {
		t.Error("Size after delete should be ErrNotFound")
	}
	d.Delete("f") // no-op
}

func TestList(t *testing.T) {
	d := newDFS(t)
	d.Write(0, "edges/2/file0", nil)
	d.Write(0, "edges/2/file1", nil)
	d.Write(0, "edges/1/file0", nil)
	got := d.List("edges/2/")
	if len(got) != 2 || got[0] != "edges/2/file0" || got[1] != "edges/2/file1" {
		t.Errorf("List = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newDFS(t)
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				path := "p" + string(rune('a'+n))
				d.Write(n, path, []byte{byte(i)})
				d.Read(n, path)
				d.List("p")
			}
		}()
	}
	wg.Wait()
}

// Property: read-your-writes for arbitrary content.
func TestReadYourWrites(t *testing.T) {
	d := newDFS(t)
	f := func(path string, content []byte) bool {
		if path == "" {
			path = "x"
		}
		d.Write(0, path, content)
		got, _, err := d.Read(0, path)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, costmodel.Default()); err == nil {
		t.Error("expected error for zero nodes")
	}
}
