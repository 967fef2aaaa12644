let sim_config ?seed ?(warmup_fraction = 0.1) duration =
  let open Lognic_sim.Netsim.Config in
  let c = with_horizon ~warmup:(duration *. warmup_fraction) duration default in
  match seed with Some s -> with_seed s c | None -> c

let header ppf title columns =
  Fmt.pf ppf "== %s ==@.%s@." title (String.concat "  " columns)
