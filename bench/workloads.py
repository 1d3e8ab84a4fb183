"""Workload name -> module with setup, untraced, traced and check."""

import lab
import warp

WORKLOADS = {"warp-m12-open": warp, "warp-m10": warp, "lab": lab}
