package cluster

import (
	"fmt"

	"blobseer/internal/hdfs"
	"blobseer/internal/node"
	"blobseer/internal/placement"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
)

// HDFSConfig describes an HDFS-like baseline deployment.
type HDFSConfig struct {
	Datanodes   int
	BlockSize   int64
	Replication int
	Strategy    placement.Strategy // default: hdfs.DefaultStrategy(seed 1)
	UseTCP      bool
}

func (c *HDFSConfig) fill() {
	if c.Datanodes == 0 {
		c.Datanodes = 4
	}
	if c.BlockSize == 0 {
		c.BlockSize = util.MB
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Strategy == nil {
		c.Strategy = hdfs.DefaultStrategy(1)
	}
}

// HDFS is a running baseline deployment.
type HDFS struct {
	Cfg           HDFSConfig
	Pool          *rpc.Pool
	NNAddr        string
	DatanodeAddrs []string

	nn  *node.Node
	dns map[string]*node.Node
	net *rpc.InprocNetwork // nil on TCP
}

// StartHDFS deploys a namenode plus datanodes.
func StartHDFS(cfg HDFSConfig) (*HDFS, error) {
	cfg.fill()
	h := &HDFS{Cfg: cfg, dns: make(map[string]*node.Node)}
	h.net, h.Pool = newTransport(cfg.UseTCP)
	start := func(name string, ncfg node.Config) (*node.Node, error) {
		lis, err := listen(h.net, name, "")
		if err != nil {
			return nil, err
		}
		ncfg.Listener, ncfg.Pool = lis, h.Pool
		return node.Start(ncfg)
	}

	var err error
	if h.nn, err = start("namenode", node.Config{
		Role:      node.Namenode,
		BlockSize: cfg.BlockSize,
		Strategy:  cfg.Strategy,
	}); err != nil {
		h.Stop()
		return nil, err
	}
	h.NNAddr = h.nn.Addr

	for i := 0; i < cfg.Datanodes; i++ {
		n, err := start(fmt.Sprintf("datanode-%d", i), node.Config{
			Role:   node.Datanode,
			NNAddr: h.NNAddr,
			Host:   h.HostOf(i),
		})
		if err != nil {
			h.Stop()
			return nil, err
		}
		h.DatanodeAddrs = append(h.DatanodeAddrs, n.Addr)
		h.dns[n.Addr] = n
	}
	return h, nil
}

// HostOf returns the synthetic host name of datanode i (shared scheme
// with BlobSeer deployments so co-deployment scenarios line up).
func (h *HDFS) HostOf(i int) string { return fmt.Sprintf("host-%d", i) }

// NewFS returns an HDFS client for this deployment.
func (h *HDFS) NewFS(host string) (*hdfs.FS, error) {
	return hdfs.New(hdfs.Config{
		Pool:        h.Pool,
		NNAddr:      h.NNAddr,
		BlockSize:   h.Cfg.BlockSize,
		Replication: h.Cfg.Replication,
		Host:        host,
	})
}

// Namenode exposes the namenode core (tests, layout metrics).
func (h *HDFS) Namenode() *hdfs.Namenode { return h.nn.NameNode.Namenode() }

// DatanodeService returns the daemon behind a datanode address.
func (h *HDFS) DatanodeService(addr string) *provider.Service {
	if n := h.dns[addr]; n != nil {
		return n.Provider
	}
	return nil
}

// Stop shuts the deployment down.
func (h *HDFS) Stop() {
	all := []*node.Node{h.nn}
	for _, a := range h.DatanodeAddrs {
		all = append(all, h.dns[a])
	}
	stopAll(all)
	h.Pool.Close()
}
