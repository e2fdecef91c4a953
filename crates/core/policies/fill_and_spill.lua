-- Fill & Spill Balancer (Listing 3) — a LARD variation: fill one MDS up to
-- its capacity before spilling a slice of load to the neighbour.
--
-- The CPU threshold is derived the way the paper derives its 48%: from
-- the Fig. 5 scaling study, take the CPU utilization at 3 clients (the
-- largest client count that does not overload one MDS). On the paper's
-- testbed that is 48%; on this repository's simulated cluster the same
-- methodology yields ≈80% (see EXPERIMENTS.md). The WRstate / RDstate
-- counter makes the balancer conservative: after a spill it sits out
-- PATIENCE overloaded iterations and spills again on the next (the
-- heartbeat it would otherwise act on is stale, §2.2.2).
--
-- CPU_THRESHOLD, SPILL_DIVISOR and PATIENCE are substituted by the host
-- when the policy is instantiated (divisor 4 spills 25% of the load, 10
-- spills 10% — §4.2 compares both; the listing's patience is 2, so it
-- fires on every third overloaded iteration).
wait = RDstate()
go = 0
if MDSs[whoami]["cpu"] > CPU_THRESHOLD then
  if wait > 0 then WRstate(wait-1)
  else WRstate(PATIENCE) go = 1 end
else WRstate(PATIENCE) end
if go == 1 and whoami < #MDSs then
  -- Where policy
  targets[whoami+1] = MDSs[whoami]["load"]/SPILL_DIVISOR
end
