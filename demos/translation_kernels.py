"""Anatomy of one pairwise link and its translation kernel.

For an ordered pair (target | known), the conditional MMSE filter reduces
the whole received vector to one scalar observation. This script prints the
link quantities, verifies the identities that make the Gaussian recursion
work, and shows how a neighbour's message gets translated into evidence.
"""

import numpy as np

import mimobp as mb
from mimobp.pairwise import conditional_filter

sigma2 = 0.1
constellation = mb.qpsk()
channel = mb.ChannelInstance(H=mb.draw_channel(4, 4, 3), sigma2=sigma2)
rec = mb.transmit(channel, constellation, 4)
H = channel.H

j, i = 2, 0
link = mb.build_link(channel, rec.y, j, i)
print(f"link (target {j} | known {i})")
print(f"  filtered observation y' = {link.y_prime:.4f}")
print(f"  target gain a_jj        = {link.a_jj:.4f} (real)")
print(f"  cross gain  a_ji        = {link.a_ji:.4f}")
print(f"  conditioned noise power = {link.sigma2_cond:.4f}")
print()

# the identities the recursion coefficients rest on ---------------------------
# K_ji: noise plus every stream other than j and i as Gaussian interference
others = [k for k in range(channel.n_tx) if k not in (j, i)]
K = sigma2 * np.eye(channel.n_rx) + H[:, others] @ H[:, others].conj().T
c = conditional_filter(H, sigma2, j, i)
print(f"filter from the QR factor vs a direct solve of K_ji: "
      f"{np.max(np.abs(c - np.linalg.solve(K, H[:, j]))):.1e}")
quad = np.vdot(c, K @ c).real
print(f"noise power as a quadratic form: {quad:.12f}  (equals a_jj: "
      f"{abs(quad - link.a_jj):.1e})")

# K_i leaves stream j in the interference too
K_i = K + np.outer(H[:, j], H[:, j].conj())
row = np.linalg.solve(K_i, H[:, j])
print("mean-recursion offset, two routes:")
print(f"  y' / (1 + s2)                 = {link.u:.10f}")
print(f"  smaller-exclusion filter on y = {np.vdot(row, rec.y):.10f}")
print("mean-recursion slope, two routes:")
print(f"  -a_ji / (1 + s2)              = {link.v:.10f}")
print(f"  smaller-exclusion cross gain  = {-np.vdot(row, H[:, i]):.10f}")
print()

# translating a message --------------------------------------------------------
print("kernel mean is affine in the known symbol (slope -a_ji/(1+s2)):")
for x_i in constellation.points:
    g = mb.translate_kernel(link, x_i)
    print(f"  x_i = {x_i:+.3f}:  mean {g.mean:+.4f}  variance {g.variance:.4f}")

print()
print("translated pmf over the constellation for a flat incoming message:")
table = np.exp(mb.translate_log_table(link, constellation.points))
msg = table.mean(axis=1)
msg /= msg.sum()
print("  " + " ".join(f"{p:.4f}" for p in msg))

print()
print("graph sizes: fully connected has M(M-1) links, the ring 2M "
      "(two per neighbouring pair):")
full = mb.build_graph(channel, rec.y, mb.Topology.FULLY_CONNECTED)
ring = mb.build_graph(channel, rec.y, mb.Topology.RING)
print(f"  fully connected: {len(full.links)} links; ring: {len(ring.links)} links")
