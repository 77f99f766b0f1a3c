package obs

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestEventLogRecordRecent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0), step: time.Second}
	l := NewEventLog(8, clk.now)
	l.Record("shard_ejected", "", map[string]string{"shard": "a"})
	l.Record("retry", "deadbeef00000001", map[string]string{"attempt": "2"})

	if n := l.seq; n != 2 {
		t.Fatalf("count %d", n)
	}
	got := l.Recent(0)
	if len(got) != 2 {
		t.Fatalf("recent: %d events", len(got))
	}
	if got[0].Kind != "retry" || got[0].TraceID != "deadbeef00000001" || got[0].Fields["attempt"] != "2" {
		t.Fatalf("newest wrong: %+v", got[0])
	}
	if got[1].Kind != "shard_ejected" || got[1].Seq != 1 {
		t.Fatalf("oldest wrong: %+v", got[1])
	}
	if got[0].Seq <= got[1].Seq {
		t.Fatalf("order not newest-first: %d then %d", got[0].Seq, got[1].Seq)
	}
	if got2 := l.Recent(1); len(got2) != 1 || got2[0].Kind != "retry" {
		t.Fatalf("limited recent wrong: %+v", got2)
	}
}

func TestEventLogWrapKeepsNewest(t *testing.T) {
	l := NewEventLog(4, nil)
	for i := 1; i <= 10; i++ {
		l.Record("e", "", map[string]string{"i": strconv.Itoa(i)})
	}
	got := l.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d", len(got))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if got[i].Seq != want {
			t.Fatalf("recent[%d].Seq = %d want %d", i, got[i].Seq, want)
		}
	}
}

func TestEventLogCapacityRoundsUp(t *testing.T) {
	if c := len(NewEventLog(5, nil).ring); c != 8 {
		t.Fatalf("capacity %d want 8", c)
	}
	if c := len(NewEventLog(0, nil).ring); c != DefaultEventCapacity {
		t.Fatalf("default capacity %d want %d", c, DefaultEventCapacity)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Record("x", "", nil)
	if l.Recent(10) != nil {
		t.Fatal("nil EventLog must be inert")
	}
}

// TestEventLogConcurrentRecordRecent hammers Record from many goroutines
// while readers call Recent — the ring's race regression (run under -race
// by the race-par make target). Recent under concurrent lapping must stay
// monotone by sequence and never return a torn event, and once the writers
// are done it returns the whole ring.
func TestEventLogConcurrentRecordRecent(t *testing.T) {
	l := NewEventLog(64, nil)
	const writers = 8
	const perWriter = 500
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := l.Recent(0)
				for i := 1; i < len(got); i++ {
					if got[i-1].Seq <= got[i].Seq {
						t.Errorf("not monotone: seq %d then %d", got[i-1].Seq, got[i].Seq)
						return
					}
				}
				for _, e := range got {
					if e.Kind == "" || e.Fields["w"] == "" {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record("concurrent", "", map[string]string{"w": strconv.Itoa(w)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := l.seq; got != writers*perWriter {
		t.Fatalf("count %d want %d", got, writers*perWriter)
	}
	if got := l.Recent(0); len(got) != len(l.ring) {
		t.Fatalf("full ring returns %d want %d", len(got), len(l.ring))
	}
}
