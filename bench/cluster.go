package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/logvol"
)

// cluster is the system under test: PHB → relay → SHB in this process,
// linked over TCP on 127.0.0.1 — host loopback, never a real link.
type cluster struct {
	transport repro.TCPTransport
	phb       *repro.Broker
	relay     *repro.Broker
	shb       *repro.Broker
	dir       string
}

func (w workload) pubendIDs() []repro.PubendID {
	ids := make([]repro.PubendID, w.pubends)
	for i := range ids {
		ids[i] = repro.PubendID(i + 1)
	}
	return ids
}

// startCluster starts the three brokers under dir. Every publish ack is a
// durable ack (group commit with a real fsync); the cache sizes are the
// only fields a workload may move off their defaults.
func startCluster(ctx context.Context, dir string, w workload) (*cluster, error) {
	c := &cluster{dir: dir}
	common := repro.BrokerConfig{
		Transport:      c.transport,
		PubendSync:     logvol.SyncGroup,
		EventCacheSize: w.cacheSize,
		RelayCacheSize: w.cacheSize,
	}
	var hosted []repro.PubendConfig
	for _, id := range w.pubendIDs() {
		hosted = append(hosted, repro.PubendConfig{ID: id, SyncEveryPublish: true})
	}

	cfg := common
	cfg.Name = "phb"
	cfg.DataDir = filepath.Join(dir, "phb")
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.HostedPubends = hosted
	var err error
	if c.phb, err = repro.StartBroker(ctx, cfg); err != nil {
		return nil, fmt.Errorf("start phb: %w", err)
	}

	cfg = common
	cfg.Name = "relay"
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.UpstreamAddr = c.phb.BoundAddr()
	if c.relay, err = repro.StartBroker(ctx, cfg); err != nil {
		c.close()
		return nil, fmt.Errorf("start relay: %w", err)
	}

	cfg = common
	cfg.Name = "shb"
	cfg.DataDir = filepath.Join(dir, "shb")
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.UpstreamAddr = c.relay.BoundAddr()
	cfg.EnableSHB = true
	cfg.AllPubends = w.pubendIDs()
	if c.shb, err = repro.StartBroker(ctx, cfg); err != nil {
		c.close()
		return nil, fmt.Errorf("start shb: %w", err)
	}
	return c, nil
}

// close stops the brokers leaf first and removes their state.
func (c *cluster) close() {
	for _, b := range []*repro.Broker{c.shb, c.relay, c.phb} {
		if b != nil {
			b.Close() //nolint:errcheck // teardown of a finished run
		}
	}
	os.RemoveAll(c.dir) //nolint:errcheck // scratch state
}

// setUp brings the system to the point where the window can open: it
// starts a cluster, registers the workload's durable population — every
// detached subscription connects through the one subscriber slot and
// disconnects again, which leaves it durable and costs no connection — and
// connects S and the publisher.
func setUp(ctx context.Context, dir string, in *inputs) (*driver, time.Duration, error) {
	start := time.Now()
	c, err := startCluster(ctx, dir, in.w)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range in.subs {
		sub, err := repro.NewDurableSubscriber(repro.SubscriberOptions{ID: s.id, Filter: s.src()})
		if err == nil {
			err = sub.Connect(ctx, c.transport, c.shb.BoundAddr())
		}
		if err == nil {
			err = sub.Disconnect()
		}
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("register subscription %d (%s): %w", s.id, s.src(), err)
		}
	}
	d, err := newDriver(ctx, in, c)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// filesystem names the filesystem holding dir. The benchmark measures real
// fsyncs, so memory-backed filesystems are refused.
func filesystem(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794c7630: "overlayfs",
		0x2fc12fc1: "zfs",
		0x6969:     "nfs",
		0x01021994: "tmpfs",
		0x858458f6: "ramfs",
	}
	name, ok := names[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", int64(st.Type))
	}
	if name == "tmpfs" || name == "ramfs" {
		return name, fmt.Errorf("data dir %s is on %s: fsync there is not a disk write", dir, name)
	}
	return name, nil
}
