package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestAdvanceAndNow(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Error("fresh clock not at zero")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if got := c.Now(); got != 8*time.Millisecond {
		t.Errorf("Now = %v, want 8ms", got)
	}
	c.Advance(-time.Second) // ignored
	if got := c.Now(); got != 8*time.Millisecond {
		t.Errorf("negative advance changed clock: %v", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(10 * time.Millisecond)
	c.AdvanceTo(5 * time.Millisecond) // in the past: no-op
	if c.Now() != 10*time.Millisecond {
		t.Error("AdvanceTo moved the clock backwards")
	}
	c.AdvanceTo(20 * time.Millisecond)
	if c.Now() != 20*time.Millisecond {
		t.Errorf("AdvanceTo = %v", c.Now())
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8*1000*time.Microsecond {
		t.Errorf("concurrent total = %v, want 8ms", got)
	}
}
