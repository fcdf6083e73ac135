package cluster

import "fmt"

// This file is the control-plane half of the chaos harness: crash and
// restart injection for the version manager and the namespace manager,
// mirroring KillProvider for the data plane. A "crash" is node.Kill:
// the RPC server goes down (in-flight and future calls fail at the
// transport level, the signature clients see from a real dead process)
// and the in-memory state is dropped. A "restart" is node.Start on the
// same address with the same configuration, which rebuilds the state
// from the WAL — or from nothing when the deployment runs without one,
// which is exactly the data-loss ablation AblationCrashRecovery
// measures.

// KillVMShard crashes version-manager shard k. Pending WaitPublished
// waiters on that shard die with the server — their clients see a
// transport failure and (with the retrying client) re-arm against the
// recovered instance. Sibling shards are untouched and keep publishing
// throughout.
func (c *BlobSeer) KillVMShard(k int) { c.vms[k].Kill() }

// RestartVMShard recovers shard k from its WAL (or from nothing
// without one) and serves it on its original address.
func (c *BlobSeer) RestartVMShard(k int) error {
	n, err := c.start(c.vmName(k), c.vms[k].Addr, c.vms[k].Cfg)
	if err != nil {
		return fmt.Errorf("cluster: restart vmanager shard %d: %w", k, err)
	}
	c.vms[k] = n
	return nil
}

// KillVManager crashes every version-manager shard (the whole control
// plane; single-shard deployments keep their historical semantics).
func (c *BlobSeer) KillVManager() {
	for k := range c.vms {
		c.KillVMShard(k)
	}
}

// RestartVManager recovers every shard from its WAL (or from nothing
// without one) and serves each on its original address.
func (c *BlobSeer) RestartVManager() error {
	for k := range c.vms {
		if err := c.RestartVMShard(k); err != nil {
			return err
		}
	}
	return nil
}

// KillNamespace crashes the namespace manager.
func (c *BlobSeer) KillNamespace() { c.ns.Kill() }

// RestartNamespace recovers the namespace from its WAL and serves it
// on the original address.
func (c *BlobSeer) RestartNamespace() error {
	n, err := c.start("namespace", c.ns.Addr, c.ns.Cfg)
	if err != nil {
		return fmt.Errorf("cluster: restart namespace: %w", err)
	}
	c.ns = n
	return nil
}
