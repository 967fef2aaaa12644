module P = Lognic_numerics.Parallel

let map = P.map
let sweep = P.sweep

let execute_replicated ?jobs ?(runs = 5) spec =
  Netsim.replicated_of_measurements
    (map ?jobs Netsim.execute (Netsim.replication_specs spec runs))
