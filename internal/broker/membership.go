package broker

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/message"
	"repro/internal/overlay"
)

// Runtime membership: a live broker can change its position in the tree.
// SetUpstream re-parents it under a new parent, DetachUpstream turns it
// into a root. Both follow make-before-break: the new link must be fully
// up — Hello sent, dispatch started, covers and pending curiosity resynced
// (resyncUpstream) — before the old parent is told to forget this subtree
// via a deliberate Leave. Until that handover the old path keeps flowing,
// so no knowledge window opens; afterwards the knowledge/NACK protocol
// re-requests anything that raced the switch, and the constream cursor at
// each SHB deduplicates anything that arrives twice. See DESIGN §2.11.

// errStaleSupervisor aborts a retired supervisor's bring-up: its reconnect
// raced a re-parent and must not resynchronize state onto the abandoned
// path (the supervisor closes the conn and backs off until stopped).
var errStaleSupervisor = errors.New("broker: stale upstream supervisor")

// SetUpstream re-parents the live broker under the broker at addr. The new
// supervised link is established and resynchronized under ctx before the
// old parent (if any) is sent a Leave and torn down; on error the broker
// keeps its current parent. Re-parenting to the current parent's address
// with a healthy link is a no-op. Safe for concurrent use; serialized with
// DetachUpstream and shutdown.
func (b *Broker) SetUpstream(ctx context.Context, addr string) error {
	if addr == "" {
		return errors.New("broker: SetUpstream: empty address (use DetachUpstream)")
	}
	b.memberMu.Lock()
	defer b.memberMu.Unlock()
	if b.closed.Load() {
		return fmt.Errorf("broker %s: closed", b.cfg.Name)
	}
	if err := b.setUpstreamLocked(ctx, addr); err != nil {
		return err
	}
	// An operator re-parent moves the fail-over preference with it; a
	// repair-driven one (failoverTo) deliberately does not.
	if b.repairMon != nil {
		b.repairMon.SetPrimary(addr)
	}
	return nil
}

// setUpstreamLocked is the make-before-break switch shared by the
// operator path (SetUpstream) and the repair path (failoverTo). Callers
// hold memberMu and have checked closed.
func (b *Broker) setUpstreamLocked(ctx context.Context, addr string) error {
	old := b.upSup.Load()
	if old != nil && old.Addr() == addr && old.Status().State == overlay.LinkUp {
		return nil
	}
	sup := b.newUpstreamSup(addr)
	// Publish the candidate so its OnUp passes the generation guard while
	// the old supervisor is still installed (make-before-break).
	b.pendingSup.Store(sup)
	if err := sup.StartContext(ctx); err != nil {
		b.pendingSup.Store(nil)
		return fmt.Errorf("broker %s: set upstream %s: %w", b.cfg.Name, addr, err)
	}
	b.upSup.Store(sup)
	b.pendingSup.Store(nil)
	b.retireUpstream(old)
	return nil
}

// DetachUpstream makes the broker a root: the upstream link (if any) is
// sent a Leave and torn down. The subtree below keeps operating; hosted
// pubends and the SHB are unaffected. Safe for concurrent use.
func (b *Broker) DetachUpstream() {
	b.memberMu.Lock()
	defer b.memberMu.Unlock()
	b.retireUpstream(b.upSup.Swap(nil))
	// A root confirms its own announcements.
	b.control().push(func() { b.takeSyncs()() })
	if b.repairMon != nil {
		b.repairMon.SetPrimary("")
	}
	// Mint a fresh root epoch so positions learned under the old parent
	// are recognizably stale (see repair.Adoptable).
	b.becomeRoot()
}

// retireUpstream tells the old parent this departure is deliberate — so it
// may purge this subtree's covers and release floors after its grace
// period instead of retaining them for a crash-reconnect — then stops the
// supervisor. Sent on the link's conn directly: the supervisor is being
// retired, and a failed send just means the old parent treats us as
// crashed (safe: crash retains state). Callers hold memberMu.
func (b *Broker) retireUpstream(old *overlay.Supervisor) {
	if old == nil {
		return
	}
	if c := old.Conn(); c != nil {
		c.Send(&message.Leave{Name: b.cfg.Name}) //nolint:errcheck,gosec // crash semantics are the safe fallback
	}
	old.Stop()
}

// UpstreamAddr reports the current parent's dial address ("" for a root).
func (b *Broker) UpstreamAddr() string {
	if sup := b.upSup.Load(); sup != nil {
		return sup.Addr()
	}
	return ""
}
