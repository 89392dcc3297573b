package netsim

import (
	"errors"
	"fmt"
	"math/rand"
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

// refNetwork is the two-map Network that endpoint records replaced:
// handlers and link states in separate maps, a Send that checks them in
// turn, and a delivery that looks its destination up in both. It is the
// lockstep test's model of the semantics the records must keep.
type refNetwork struct {
	name     string
	sim      *simclock.Sim
	latency  simclock.Time
	jitter   float64
	up       bool
	handlers map[string]Handler
	linkUp   map[string]bool
	stats    Stats
}

func newRef(sim *simclock.Sim, name string, latency simclock.Time, jitter float64) *refNetwork {
	return &refNetwork{name: name, sim: sim, latency: latency, jitter: jitter, up: true,
		handlers: map[string]Handler{}, linkUp: map[string]bool{}}
}

func (n *refNetwork) Reset() {
	n.up = true
	clear(n.handlers)
	clear(n.linkUp)
	n.stats = Stats{}
}

func (n *refNetwork) Attach(host string, h Handler) {
	if _, ok := n.linkUp[host]; !ok {
		n.linkUp[host] = true
	}
	n.handlers[host] = h
}

func (n *refNetwork) Detach(host string) {
	delete(n.handlers, host)
	delete(n.linkUp, host)
}

func (n *refNetwork) Attached(host string) bool {
	_, ok := n.handlers[host]
	return ok
}

func (n *refNetwork) SetLink(host string, up bool) {
	if _, ok := n.linkUp[host]; ok {
		n.linkUp[host] = up
	}
}

func (n *refNetwork) Usable(from, to string) bool {
	return n.up && n.Attached(from) && n.Attached(to) && n.linkUp[from] && n.linkUp[to]
}

func (n *refNetwork) Send(msg Message) error {
	switch {
	case !n.up:
		return fmt.Errorf("%w: %s", ErrNetworkDown, n.name)
	case !n.Attached(msg.From):
		return fmt.Errorf("%w: %s on %s", ErrNotAttached, msg.From, n.name)
	case !n.Attached(msg.To):
		return fmt.Errorf("%w: %s on %s", ErrNotAttached, msg.To, n.name)
	case !n.linkUp[msg.From]:
		return fmt.Errorf("%w: %s on %s", ErrLinkDown, msg.From, n.name)
	case !n.linkUp[msg.To]:
		return fmt.Errorf("%w: %s on %s", ErrLinkDown, msg.To, n.name)
	}
	n.stats.Sent++
	n.stats.Bytes += int64(msg.size())
	lat := n.latency
	if n.jitter > 0 {
		lat = n.sim.Rand().Jitter(n.latency, n.jitter)
	}
	n.sim.PostAfter(lat, "ref-deliver", func(now simclock.Time) {
		h, ok := n.handlers[msg.To]
		if !ok || !n.up || !n.linkUp[msg.To] {
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		h(now, msg)
	})
	return nil
}

// refRouterSend is the Router.Send the records replaced: a Usable check,
// then a Send that checks everything again.
func refRouterSend(nets []*refNetwork, reroutes *int, msg Message) (string, error) {
	for i, n := range nets {
		if !n.Usable(msg.From, msg.To) {
			continue
		}
		if err := n.Send(msg); err != nil {
			continue
		}
		if i > 0 {
			*reroutes++
		}
		return n.name, nil
	}
	return "", fmt.Errorf("%w: %s -> %s", ErrNoRouteFound, msg.From, msg.To)
}

// TestEndpointRecordsMatchTwoMapModel runs random Attach, Detach,
// SetLink, SetUp, Reset, Send and Router.Send steps, with deliveries in
// between, on two networks and on the two-map model of each, and checks
// after every step that the return values, Usable, Attached, LinkUp, the
// stats and the handler calls agree. "ghost" is never attached.
func TestEndpointRecordsMatchTwoMapModel(t *testing.T) {
	hosts := []string{"a", "b", "c", "ghost"}
	seen := map[string]int{} // what the steps exercised, so the test cannot pass vacuously
	for trial := range 40 {
		r := rand.New(rand.NewSource(int64(trial)))
		sim, refSim := simclock.New(uint64(trial)), simclock.New(uint64(trial))
		nets := []*Network{New(sim, "private", simclock.Second, 0.3), New(sim, "public", 2*simclock.Second, 0)}
		refs := []*refNetwork{newRef(refSim, "private", simclock.Second, 0.3), newRef(refSim, "public", 2*simclock.Second, 0)}
		router := NewRouter(nets...)
		refReroutes := 0
		var got, want []string
		handler := func(log *[]string, net, host string, k int) Handler {
			return func(now simclock.Time, m Message) {
				*log = append(*log, fmt.Sprintf("%v %s %s h%d %s->%s %s", now, net, host, k, m.From, m.To, m.Payload))
			}
		}
		sameErr := func(step int, what string, err, refErr error) {
			t.Helper()
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("trial %d step %d: %s returned %v, model %v", trial, step, what, err, refErr)
			}
			for _, e := range []error{ErrNetworkDown, ErrLinkDown, ErrNotAttached, ErrNoRouteFound, nil} {
				if errors.Is(err, e) {
					seen[fmt.Sprint(e)]++
				}
			}
		}
		for step := range 400 {
			i := r.Intn(2)
			n, ref := nets[i], refs[i]
			host := hosts[r.Intn(3)]
			msg := Message{From: hosts[r.Intn(4)], To: hosts[r.Intn(4)], Kind: "k", Payload: fmt.Sprintf("m%d", step)}
			switch op := r.Intn(20); {
			case op < 3:
				k := r.Intn(3)
				n.Attach(host, handler(&got, n.Name(), host, k))
				ref.Attach(host, handler(&want, ref.name, host, k))
			case op < 4:
				n.Detach(host)
				ref.Detach(host)
			case op < 7:
				h, up := hosts[r.Intn(4)], r.Intn(2) == 0
				n.SetLink(h, up)
				ref.SetLink(h, up)
			case op < 8:
				up := r.Intn(3) > 0
				n.SetUp(up)
				ref.up = up
			case op < 9 && r.Intn(4) == 0:
				n.Reset()
				ref.Reset()
			case op < 13:
				sameErr(step, "Send", n.Send(msg), ref.Send(msg))
			case op < 17:
				via, err := router.Send(msg)
				refVia, refErr := refRouterSend(refs, &refReroutes, msg)
				sameErr(step, "Router.Send", err, refErr)
				if (via == nil) != (refVia == "") || via != nil && via.Name() != refVia {
					t.Fatalf("trial %d step %d: routed via %v, model %q", trial, step, via, refVia)
				}
			default:
				end := sim.Now() + simclock.Time(r.Intn(3000))*simclock.Second/1000
				sim.RunUntil(end)
				refSim.RunUntil(end)
			}
			for i, n := range nets {
				ref := refs[i]
				if n.Stats() != ref.stats || n.Up() != ref.up {
					t.Fatalf("trial %d step %d: %s stats %+v up %v, model %+v up %v",
						trial, step, n.Name(), n.Stats(), n.Up(), ref.stats, ref.up)
				}
				for _, h := range hosts {
					if n.Attached(h) != ref.Attached(h) || n.LinkUp(h) != ref.linkUp[h] {
						t.Fatalf("trial %d step %d: %s %s attached %v link %v, model %v %v", trial, step,
							n.Name(), h, n.Attached(h), n.LinkUp(h), ref.Attached(h), ref.linkUp[h])
					}
					for _, to := range hosts {
						if n.Usable(h, to) != ref.Usable(h, to) {
							t.Fatalf("trial %d step %d: %s Usable(%s, %s) = %v, model %v",
								trial, step, n.Name(), h, to, n.Usable(h, to), ref.Usable(h, to))
						}
					}
				}
			}
			if router.Reroutes != refReroutes || !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: reroutes %d, model %d\n calls: %q\n model: %q",
					trial, step, router.Reroutes, refReroutes, got, want)
			}
		}
		seen["delivered"] += len(got)
		seen["reroutes"] += router.Reroutes
		for _, n := range nets {
			seen["dropped"] += n.Stats().Dropped
		}
	}
	for _, what := range []string{"delivered", "reroutes", "dropped", fmt.Sprint(nil),
		ErrNetworkDown.Error(), ErrLinkDown.Error(), ErrNotAttached.Error(), ErrNoRouteFound.Error()} {
		if seen[what] == 0 {
			t.Errorf("no step produced %q: %v", what, seen)
		}
	}
}

// BenchmarkRouterSend times one report over a router that prefers a
// private network to a public one, as every agent's report goes: the
// send and its delivery, at 0 allocs/op.
func BenchmarkRouterSend(b *testing.B) {
	sim := simclock.New(1)
	priv := New(sim, "private", simclock.Time(1e6), 0.1)
	pub := New(sim, "public", 2*simclock.Time(1e6), 0.2)
	delivered := 0
	for _, n := range []*Network{priv, pub} {
		n.Attach("db001", nil)
		n.Attach("admin-vip", func(simclock.Time, Message) { delivered++ })
	}
	router := NewRouter(priv, pub)
	msg := Message{From: "db001", To: "admin-vip", Kind: "agent-ok", Payload: "status-db001"}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := router.Send(msg); err != nil {
			b.Fatal(err)
		}
		sim.Step()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
