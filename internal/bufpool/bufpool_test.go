package bufpool

import (
	"sync"
	"testing"
)

func TestGetPutReuse(t *testing.T) {
	p := New()
	if got := p.Get(); got != nil {
		t.Fatalf("empty pool Get = %v, want nil", got)
	}
	buf := append([]byte(nil), "hello"...)
	p.Put(buf)
	got := p.Get()
	if got == nil || cap(got) != cap(buf) {
		t.Fatalf("Get after Put: cap=%d want %d", cap(got), cap(buf))
	}
	if len(got) != 0 {
		t.Fatalf("Get returned non-empty buffer len=%d", len(got))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Misses != 1 || st.Puts != 1 || st.Reused() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutDropsZeroCap(t *testing.T) {
	p := New()
	p.Put(nil)
	p.Put([]byte{})
	if p.Len() != 0 {
		t.Fatalf("zero-cap buffers entered the pool: len=%d", p.Len())
	}
}

func TestLIFOOrder(t *testing.T) {
	p := New()
	small := make([]byte, 0, 8)
	big := make([]byte, 0, 1024)
	p.Put(small)
	p.Put(big)
	if got := p.Get(); cap(got) != 1024 {
		t.Fatalf("LIFO violated: first Get cap=%d want 1024", cap(got))
	}
	if got := p.Get(); cap(got) != 8 {
		t.Fatalf("LIFO violated: second Get cap=%d want 8", cap(got))
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				buf := p.Get()
				buf = append(buf, byte(i))
				p.Put(buf)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 8000 || st.Puts != 8000 {
		t.Fatalf("stats after concurrent churn = %+v", st)
	}
}

func TestSlotKeepsRole(t *testing.T) {
	p := New()
	small := make([]byte, 3, 8)
	big := make([]byte, 5, 1024)
	p.PutSlot(4, big)
	p.Put(small)
	if got := p.GetSlot(4); cap(got) != 1024 || len(got) != 0 {
		t.Fatalf("GetSlot(4) = len %d cap %d, want the parked 1024-cap buffer, emptied", len(got), cap(got))
	}
	if got := p.GetSlot(4); cap(got) != 8 {
		t.Fatalf("empty slot must fall back to the free list: cap=%d want 8", cap(got))
	}
	if got := p.GetSlot(9); got != nil {
		t.Fatalf("GetSlot past the table on an empty pool = %v, want nil", got)
	}
	// An occupied slot overflows into the free list; zero-cap buffers vanish.
	p.PutSlot(2, big)
	p.PutSlot(2, small)
	p.PutSlot(2, nil)
	if p.Len() != 1 {
		t.Fatalf("free list depth = %d, want 1 (the overflow)", p.Len())
	}
	st := p.Stats()
	if st.Gets != 3 || st.Misses != 1 || st.Puts != 4 {
		t.Fatalf("stats = %+v", st)
	}
}
