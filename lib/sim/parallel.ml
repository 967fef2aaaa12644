module P = Lognic_numerics.Parallel

let map = P.map
