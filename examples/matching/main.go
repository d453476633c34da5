// Matching at scale: the attribute index and subscription covering.
//
// Every broker hop matches events against subscriptions with the counting
// attribute index in internal/matchidx: equality hash buckets, sorted
// range bounds, prefix tries, presence sets; sublinear in the
// subscription count. (The brute-force scan in internal/filter remains
// only as the oracle the index is property-tested against.)
//
// On top of matching, brokers announce only a *covering set* upstream:
// a subscription subsumed by another announced one (prefix(topic,
// "market.") covers topic = "market.nyse") stays local, so routing
// tables shrink with fan-in. This example builds PHB → mid → edge,
// attaches three overlapping subscribers at the edge, and watches the
// covering set collapse their upstream footprint to one announcement —
// then re-expand, losslessly, when the covering subscriber leaves.
//
// Run with: go run ./examples/matching
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	repro "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "matching-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck

	net := repro.NewInprocNetwork(0)
	phb, err := repro.StartBroker(context.Background(), repro.BrokerConfig{
		Name:          "phb",
		DataDir:       filepath.Join(dir, "phb"),
		Transport:     net,
		ListenAddr:    "phb",
		HostedPubends: []repro.PubendConfig{{ID: 1}},
		TickInterval:  2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer phb.Close() //nolint:errcheck
	mid, err := repro.StartBroker(context.Background(), repro.BrokerConfig{
		Name: "mid", Transport: net, ListenAddr: "mid", UpstreamAddr: "phb",
		TickInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer mid.Close() //nolint:errcheck
	edge, err := repro.StartBroker(context.Background(), repro.BrokerConfig{
		Name:         "edge",
		DataDir:      filepath.Join(dir, "edge"),
		Transport:    net,
		ListenAddr:   "edge",
		UpstreamAddr: "mid",
		EnableSHB:    true,
		AllPubends:   []repro.PubendID{1},
		TickInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer edge.Close() //nolint:errcheck

	mkSub := func(id repro.SubscriberID, filter string) *repro.DurableSubscriber {
		s, err := repro.NewDurableSubscriber(repro.SubscriberOptions{
			ID: id, Filter: filter, AckInterval: 10 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Connect(context.Background(), net, "edge"); err != nil {
			log.Fatal(err)
		}
		return s
	}
	// One broad subscription covering two specific ones.
	feed := mkSub(1, `prefix(topic, "market.")`)
	nyse := mkSub(2, `topic = "market.nyse"`)
	lse := mkSub(3, `topic = "market.lse" and size > 100`)
	defer nyse.Disconnect() //nolint:errcheck
	defer lse.Disconnect()  //nolint:errcheck

	time.Sleep(50 * time.Millisecond)
	report := func(when string) {
		em, ea := edge.CoverStats()
		mm, ma := mid.CoverStats()
		fmt.Printf("%-28s edge: %d subscriptions -> %d announced | mid: %d -> %d\n",
			when, em, ea, mm, ma)
	}
	report("three overlapping subs:")

	pub, err := repro.NewPublisher(context.Background(), net, "phb", "feed")
	if err != nil {
		return err
	}
	defer pub.Close() //nolint:errcheck

	publish := func(topic string, size int64) {
		if _, _, err := pub.Publish(repro.Event{
			Attrs: repro.Attributes{
				"topic": repro.String(topic),
				"size":  repro.Int(size),
			},
			Payload: []byte(fmt.Sprintf("%s x%d", topic, size)),
		}); err != nil {
			log.Fatal(err)
		}
	}
	drain := func(s *repro.DurableSubscriber, want int) int {
		got := 0
		deadline := time.After(5 * time.Second)
		for got < want {
			select {
			case d := <-s.Deliveries():
				if d.Kind == repro.DeliverEvent {
					got++
				}
			case <-deadline:
				return got
			}
		}
		return got
	}

	for i := 0; i < 10; i++ {
		publish("market.nyse", int64(50+i*20))
		publish("market.lse", int64(50+i*20))
	}
	fmt.Printf("deliveries: feed=%d nyse=%d lse=%d (covered subs still get everything)\n",
		drain(feed, 20), drain(nyse, 10), drain(lse, 7))

	// The covering subscriber leaves for good: the edge promotes the two
	// specific subscriptions upstream before withdrawing the cover, so
	// nothing published across the transition is lost.
	if err := feed.Unsubscribe(); err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond)
	report("cover unsubscribed:")

	for i := 0; i < 5; i++ {
		publish("market.nyse", 500)
		publish("market.lse", 500)
	}
	fmt.Printf("deliveries after re-expansion: nyse=%d lse=%d\n",
		drain(nyse, 5), drain(lse, 5))
	return nil
}
