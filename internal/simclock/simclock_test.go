package simclock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeHelpers(t *testing.T) {
	if (3*Hour + 30*Minute).Hours() != 3.5 {
		t.Errorf("Hours: got %v", (3*Hour + 30*Minute).Hours())
	}
	if Day.DayOfWeek() != 1 || Time(0).DayOfWeek() != 0 {
		t.Errorf("DayOfWeek wrong: %d %d", Day.DayOfWeek(), Time(0).DayOfWeek())
	}
	if !(5*Day + 3*Hour).IsWeekend() {
		t.Error("day 5 should be weekend")
	}
	if (4 * Day).IsWeekend() {
		t.Error("day 4 should be a weekday")
	}
	if (23 * Hour).HourOfDay() != 23 {
		t.Errorf("HourOfDay: got %d", (23 * Hour).HourOfDay())
	}
	if !(23 * Hour).IsOvernight() || !(2 * Hour).IsOvernight() {
		t.Error("23:00 and 02:00 are overnight")
	}
	if (12 * Hour).IsOvernight() {
		t.Error("noon is not overnight")
	}
}

func TestTimeString(t *testing.T) {
	if got := (2*Day + Hour).String(); got != "2d1h0m0s" {
		t.Errorf("String: got %q", got)
	}
	if got := (90 * Minute).String(); got != "1h30m0s" {
		t.Errorf("String: got %q", got)
	}
}

func TestScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*Minute, "c", func(Time) { got = append(got, 3) })
	s.Schedule(1*Minute, "a", func(Time) { got = append(got, 1) })
	s.Schedule(2*Minute, "b", func(Time) { got = append(got, 2) })
	s.RunUntil(3 * Minute)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
	if s.Now() != 3*Minute {
		t.Errorf("clock should rest at last event: %v", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Minute, "tie", func(Time) { got = append(got, i) })
	}
	s.RunUntil(Minute)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(Minute, "x", func(Time) {})
	s.RunUntil(Minute)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.Schedule(0, "past", func(Time) {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.Schedule(Minute, "x", func(Time) { ran = true })
	if !e.Cancel() {
		t.Error("first Cancel should report true")
	}
	if e.Cancel() {
		t.Error("second Cancel should report false")
	}
	s.RunUntil(Minute)
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	s.Every(0, Minute, "tick", func(Time) { count++ })
	s.RunUntil(10 * Minute)
	if count != 11 { // ticks at 0..10 inclusive
		t.Errorf("tick count = %d, want 11", count)
	}
	if s.Now() != 10*Minute {
		t.Errorf("Now = %v, want 10m", s.Now())
	}
	s.RunUntil(12 * Minute)
	if count != 13 {
		t.Errorf("after resume count = %d, want 13", count)
	}
}

func TestRunUntilAdvancesClockWhenQueueDrains(t *testing.T) {
	s := New(1)
	s.Schedule(Minute, "only", func(Time) {})
	s.RunUntil(Hour)
	if s.Now() != Hour {
		t.Errorf("Now = %v, want 1h", s.Now())
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Every with zero period should panic")
		}
	}()
	s.Every(0, 0, "bad", func(Time) {})
}

func TestAfter(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(10*Minute, "outer", func(now Time) {
		s.After(5*Minute, "inner", func(now Time) { at = now })
	})
	s.RunUntil(Hour)
	if at != 15*Minute {
		t.Errorf("After fired at %v, want 15m", at)
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New(1)
	s.Schedule(Minute, "a", func(Time) {})
	s.Schedule(2*Minute, "b", func(Time) {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(2 * Minute)
	if s.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", s.Fired())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		s := New(42)
		var vals []uint64
		s.Every(0, Minute, "draw", func(Time) { vals = append(vals, s.Rand().Uint64()) })
		s.RunUntil(Hour)
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d", i)
		}
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// schedule.
func TestQuickEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New(7)
		var fired []Time
		for _, o := range offsets {
			s.Schedule(Time(o)*Second, "e", func(now Time) { fired = append(fired, now) })
		}
		s.RunUntil(Time(1<<16) * Second) // past the largest uint16 offset
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) over 1000 draws hit %d values", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestExpDurationMean(t *testing.T) {
	r := NewRand(11)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDuration(Hour))
	}
	mean := sum / n / float64(Hour)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("ExpDuration mean = %.3f h, want ~1 h", mean)
	}
}

func TestExpDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpDuration(0) should panic")
		}
	}()
	NewRand(1).ExpDuration(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(13)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(std-1) > 0.05 {
		t.Errorf("NormFloat64: mean=%.3f std=%.3f, want 0 and 1", mean, std)
	}
}

func TestUniformDuration(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 1000; i++ {
		v := r.UniformDuration(Minute, Hour)
		if v < Minute || v > Hour {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
	}
	if r.UniformDuration(Hour, Minute) != Hour {
		t.Error("inverted bounds should return lo")
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(19)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(Hour, 0.25)
		if v < Time(float64(Hour)*0.749) || v > Time(float64(Hour)*1.251) {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRand(23)
	counts := [3]int{}
	w := []float64{1, 0, 3}
	for i := 0; i < 10000; i++ {
		counts[r.Pick(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestPickPanicsOnNoWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pick with all-zero weights should panic")
		}
	}()
	NewRand(1).Pick([]float64{0, 0})
}

func TestForkIndependence(t *testing.T) {
	a := NewRand(5).Fork(1)
	b := NewRand(5).Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("forked streams collide %d/100 draws", same)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(29)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / 10000
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("Bool(0.25) hit rate %.3f", p)
	}
}

// Property: Jitter never changes sign and stays within the factor bounds.
func TestQuickJitter(t *testing.T) {
	r := NewRand(31)
	f := func(ms uint32) bool {
		d := Time(ms) * Time(1e6)
		if d == 0 {
			return true
		}
		v := r.Jitter(d, 0.5)
		return v >= Time(float64(d)*0.499) && v <= Time(float64(d)*1.501)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(Time(j)*Second, "e", func(Time) {})
		}
		s.RunUntil(999 * Second)
	}
}
