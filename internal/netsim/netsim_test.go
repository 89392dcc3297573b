package netsim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/simclock"
)

func newNet(t *testing.T) (*simclock.Sim, *Network) {
	t.Helper()
	sim := simclock.New(1)
	return sim, New(sim, "private", 2*simclock.Second, 0)
}

func TestDeliver(t *testing.T) {
	sim, n := newNet(t)
	var got []Message
	var at simclock.Time
	n.Attach("a", nil)
	n.Attach("b", func(now simclock.Time, m Message) { got = append(got, m); at = now })
	if err := n.Send(Message{From: "a", To: "b", Kind: "probe", Payload: "hi"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(got) != 1 || got[0].Payload != "hi" {
		t.Fatalf("delivery: %v", got)
	}
	if at != 2*simclock.Second {
		t.Errorf("latency: delivered at %v", at)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSendErrors(t *testing.T) {
	_, n := newNet(t)
	n.Attach("a", nil)
	if err := n.Send(Message{From: "a", To: "ghost"}); !errors.Is(err, ErrNotAttached) {
		t.Errorf("to ghost: %v", err)
	}
	if err := n.Send(Message{From: "ghost", To: "a"}); !errors.Is(err, ErrNotAttached) {
		t.Errorf("from ghost: %v", err)
	}
	n.Attach("b", nil)
	n.SetLink("a", false)
	if err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrLinkDown) {
		t.Errorf("link down: %v", err)
	}
	n.SetLink("a", true)
	n.SetUp(false)
	if err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("net down: %v", err)
	}
}

func TestInFlightDrop(t *testing.T) {
	sim, n := newNet(t)
	delivered := false
	n.Attach("a", nil)
	n.Attach("b", func(simclock.Time, Message) { delivered = true })
	n.Send(Message{From: "a", To: "b"})
	sim.After(simclock.Second, "cut", func(simclock.Time) { n.SetLink("b", false) })
	sim.Run()
	if delivered {
		t.Error("message delivered despite link cut in flight")
	}
	if n.Stats().Dropped != 1 {
		t.Errorf("dropped = %d", n.Stats().Dropped)
	}
}

func TestDetach(t *testing.T) {
	_, n := newNet(t)
	n.Attach("a", nil)
	n.Detach("a")
	if n.Attached("a") {
		t.Error("still attached after detach")
	}
}

func TestBytesAccounting(t *testing.T) {
	sim, n := newNet(t)
	n.Attach("a", nil)
	n.Attach("b", func(simclock.Time, Message) {})
	n.Send(Message{From: "a", To: "b", Payload: "0123456789"})
	n.Send(Message{From: "a", To: "b", Bytes: 1000})
	n.Send(Message{From: "a", To: "b"}) // minimum frame 64
	sim.Run()
	if n.Stats().Bytes != 10+1000+64 {
		t.Errorf("bytes = %d", n.Stats().Bytes)
	}
}

func TestRouterPrefersPrivate(t *testing.T) {
	sim := simclock.New(1)
	priv := New(sim, "private", simclock.Second, 0)
	pub := New(sim, "public", simclock.Second, 0)
	for _, n := range []*Network{priv, pub} {
		n.Attach("a", nil)
		n.Attach("b", func(simclock.Time, Message) {})
	}
	r := NewRouter(priv, pub)
	via, err := r.Send(Message{From: "a", To: "b"})
	if err != nil || via.Name() != "private" {
		t.Fatalf("via %v err %v", via, err)
	}
	if r.Reroutes != 0 {
		t.Errorf("reroutes = %d", r.Reroutes)
	}
}

func TestRouterFallsBackWhenPrivateDown(t *testing.T) {
	sim := simclock.New(1)
	priv := New(sim, "private", simclock.Second, 0)
	pub := New(sim, "public", simclock.Second, 0)
	delivered := 0
	for _, n := range []*Network{priv, pub} {
		n.Attach("a", nil)
		n.Attach("b", func(simclock.Time, Message) { delivered++ })
	}
	priv.SetUp(false)
	r := NewRouter(priv, pub)
	via, err := r.Send(Message{From: "a", To: "b"})
	if err != nil || via.Name() != "public" {
		t.Fatalf("via %v err %v", via, err)
	}
	if r.Reroutes != 1 {
		t.Errorf("reroutes = %d", r.Reroutes)
	}
	sim.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
}

func TestRouterNoRoute(t *testing.T) {
	sim := simclock.New(1)
	priv := New(sim, "private", simclock.Second, 0)
	priv.Attach("a", nil)
	priv.Attach("b", nil)
	priv.SetUp(false)
	r := NewRouter(priv)
	if _, err := r.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrNoRouteFound) {
		t.Errorf("want ErrNoRouteFound, got %v", err)
	}
}

func TestRouterFallsBackOnLinkFailure(t *testing.T) {
	sim := simclock.New(1)
	priv := New(sim, "private", simclock.Second, 0)
	pub := New(sim, "public", simclock.Second, 0)
	for _, n := range []*Network{priv, pub} {
		n.Attach("a", nil)
		n.Attach("b", func(simclock.Time, Message) {})
	}
	priv.SetLink("b", false) // only b's private NIC fails
	r := NewRouter(priv, pub)
	via, err := r.Send(Message{From: "a", To: "b"})
	if err != nil || via.Name() != "public" {
		t.Fatalf("via %v err %v", via, err)
	}
}

func TestJitterSpreadsLatency(t *testing.T) {
	sim := simclock.New(42)
	n := New(sim, "j", simclock.Second, 0.5)
	n.Attach("a", nil)
	var times []simclock.Time
	n.Attach("b", func(now simclock.Time, _ Message) { times = append(times, now) })
	for i := 0; i < 50; i++ {
		n.Send(Message{From: "a", To: "b"})
	}
	sim.Run()
	lo, hi := times[0], times[0]
	for _, v := range times {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		t.Error("jitter produced identical latencies")
	}
	if lo < simclock.Time(float64(simclock.Second)*0.49) || hi > simclock.Time(float64(simclock.Second)*1.51) {
		t.Errorf("jitter out of bounds: lo=%v hi=%v", lo, hi)
	}
}

func TestReattachPreservesLinkState(t *testing.T) {
	_, n := newNet(t)
	n.Attach("a", nil)
	n.SetLink("a", false)
	n.Attach("a", func(simclock.Time, Message) {})
	if n.LinkUp("a") {
		t.Error("reattach must not silently repair a downed link")
	}
}

// A handler that sends from inside its own delivery gets the message it
// was handed intact, although its send reuses the delivery record that
// carried it.
func TestSendFromHandler(t *testing.T) {
	sim, n := newNet(t)
	var got []string
	n.Attach("a", func(now simclock.Time, m Message) { got = append(got, "a:"+m.Payload) })
	n.Attach("b", func(now simclock.Time, m Message) {
		if err := n.Send(Message{From: "b", To: "a", Kind: "reply", Payload: "pong"}); err != nil {
			t.Error(err)
		}
		got = append(got, "b:"+m.Kind+":"+m.Payload)
	})
	for _, p := range []string{"ping1", "ping2"} {
		if err := n.Send(Message{From: "a", To: "b", Kind: "req", Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	want := []string{"b:req:ping1", "b:req:ping2", "a:pong", "a:pong"}
	if !slices.Equal(got, want) {
		t.Errorf("deliveries = %q, want %q", got, want)
	}
	if st := n.Stats(); st.Sent != 4 || st.Delivered != 4 || st.Dropped != 0 {
		t.Errorf("stats: %+v", st)
	}
	if len(n.free) != 2 {
		t.Errorf("%d pooled records after two concurrent exchanges, want 2", len(n.free))
	}
}

// A message whose destination detaches in flight is dropped, and the
// record that carried it delivers the next message unchanged.
func TestDropToDetachedHost(t *testing.T) {
	sim, n := newNet(t)
	var got []string
	handler := func(now simclock.Time, m Message) { got = append(got, m.Payload) }
	n.Attach("a", nil)
	n.Attach("b", handler)
	if err := n.Send(Message{From: "a", To: "b", Payload: "lost"}); err != nil {
		t.Fatal(err)
	}
	n.Detach("b")
	sim.Run()
	if len(got) != 0 || n.Stats().Dropped != 1 {
		t.Fatalf("detached host got %q, dropped %d", got, n.Stats().Dropped)
	}
	n.Attach("b", handler)
	if err := n.Send(Message{From: "a", To: "b", Payload: "kept"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !slices.Equal(got, []string{"kept"}) {
		t.Errorf("after re-attach got %q", got)
	}
	if st := n.Stats(); st.Sent != 2 || st.Delivered != 1 || st.Dropped != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// Messages in flight across Reset are delivered against the reset
// network: dropped when their destination is gone, delivered to the new
// handler when it was re-attached.
func TestResetWithMessagesInFlight(t *testing.T) {
	sim, n := newNet(t)
	var got []string
	n.Attach("a", nil)
	n.Attach("b", func(now simclock.Time, m Message) { got = append(got, "old:"+m.Payload) })
	n.Attach("c", nil)
	for _, to := range []string{"b", "c"} {
		if err := n.Send(Message{From: "a", To: to, Payload: "to-" + to}); err != nil {
			t.Fatal(err)
		}
	}
	n.Reset()
	n.Attach("c", func(now simclock.Time, m Message) { got = append(got, "new:"+m.Payload) })
	sim.Run()
	if !slices.Equal(got, []string{"new:to-c"}) {
		t.Errorf("deliveries = %q", got)
	}
	if st := n.Stats(); st != (Stats{Delivered: 1, Dropped: 1}) {
		t.Errorf("stats after reset: %+v", st)
	}
	n.Attach("a", nil)
	if err := n.Send(Message{From: "a", To: "c", Payload: "again"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !slices.Equal(got, []string{"new:to-c", "new:again"}) {
		t.Errorf("deliveries after reset = %q", got)
	}
}

// A warmed Send and its delivery allocate nothing.
func TestSendDeliverAllocs(t *testing.T) {
	sim := simclock.New(1)
	n := New(sim, "private", 2*simclock.Second, 0.2)
	delivered := 0
	n.Attach("a", nil)
	n.Attach("b", func(simclock.Time, Message) { delivered++ })
	msg := Message{From: "a", To: "b", Kind: "agent-ok", Payload: "status-db001"}
	send := func() {
		if err := n.Send(msg); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("warmed Send plus delivery: %v allocs, want 0", allocs)
	}
	if delivered != 102 {
		t.Errorf("delivered %d, want 102", delivered)
	}
}
