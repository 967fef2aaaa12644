type hardware = {
  bw_interface : float;
  bw_memory : float;
  resources : (string * float) list;
}

let hardware ~bw_interface ~bw_memory =
  let valid bw = bw > 0. && Float.is_finite bw in
  if not (valid bw_interface && valid bw_memory) then
    invalid_arg "Params.hardware: bandwidths must be finite and > 0";
  { bw_interface; bw_memory; resources = [] }

let with_resources hw resources =
  List.iter
    (fun (name, capacity) ->
      if name = "" then invalid_arg "Params.with_resources: empty resource name";
      if not (capacity > 0. && Float.is_finite capacity) then
        invalid_arg
          ("Params.with_resources: resource " ^ name
         ^ " capacity must be finite and > 0"))
    resources;
  let rec dup = function
    | [] -> ()
    | (name, _) :: rest ->
      if List.mem_assoc name rest then
        invalid_arg ("Params.with_resources: duplicate resource " ^ name);
      dup rest
  in
  dup resources;
  { hw with resources }

let resource_capacity hw name = List.assoc_opt name hw.resources

type medium = Interface | Memory | Link of int * int

let medium_name = function
  | Interface -> "interface"
  | Memory -> "memory"
  | Link (src, dst) -> Printf.sprintf "link-%d-%d" src dst

type source = Spec | Characterization | Configurable

type entry = {
  symbol : string;
  name : string;
  description : string;
  source : source;
}

let table2 =
  [
    {
      symbol = "BW_INTF";
      name = "Interface bandwidth";
      description = "The maximum communication bandwidth over an interface";
      source = Spec;
    };
    {
      symbol = "BW_MEM";
      name = "Memory bandwidth";
      description = "The maximum data transfer rate over a memory hierarchy";
      source = Spec;
    };
    {
      symbol = "BW_mn";
      name = "IP-IP bandwidth";
      description = "The communication bandwidth between two IPs";
      source = Characterization;
    };
    {
      symbol = "delta_eij";
      name = "Data transfer ratio";
      description = "The relative data transfer percentage across an edge";
      source = Configurable;
    };
    {
      symbol = "alpha/beta_eij";
      name = "Edge medium usage";
      description = "The bandwidth usage over an edge via interface/memory";
      source = Configurable;
    };
    {
      symbol = "g_in";
      name = "Ingress granularity";
      description = "The data transfer granularity at an ingress engine";
      source = Configurable;
    };
    {
      symbol = "O_i";
      name = "Overhead";
      description = "The computation transfer overhead from a node to the next";
      source = Characterization;
    };
    {
      symbol = "gamma_vi";
      name = "Node partition";
      description = "The multiplexing percentage of an execution engine";
      source = Configurable;
    };
    {
      symbol = "P_vi";
      name = "IP throughput";
      description = "The computing throughput of a physical IP node";
      source = Characterization;
    };
    {
      symbol = "D_vi";
      name = "IP parallelism degree";
      description = "The parallelism of a (virtual) IP node in the graph";
      source = Configurable;
    };
    {
      symbol = "N_vi";
      name = "IP queue capacity";
      description = "The queue capacity of a (virtual) IP node in the graph";
      source = Configurable;
    };
    {
      symbol = "BW_in";
      name = "Ingress bandwidth";
      description = "The data serving rate to the SmartNIC";
      source = Configurable;
    };
    {
      symbol = "dist_size";
      name = "Packet size distribution";
      description = "The packet size distribution of the incoming traffic";
      source = Configurable;
    };
  ]

let pp_source ppf = function
  | Spec -> Fmt.string ppf "SPEC"
  | Characterization -> Fmt.string ppf "CHAR"
  | Configurable -> Fmt.string ppf "CONF"

let pp_entry ppf e =
  Fmt.pf ppf "%-14s %-26s %a  %s" e.symbol e.name pp_source e.source
    e.description
