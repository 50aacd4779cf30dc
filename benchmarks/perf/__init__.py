"""The repo benchmark: six layer-targeted workloads, host-time
end-to-end metrics, and an outside-in span ledger.  See README.md."""
