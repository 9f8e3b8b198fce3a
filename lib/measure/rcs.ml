type t =
  | Leaf of { name : string; weight : float; demand : float }
  | Node of { name : string; weight : float; children : t list }

let leaf ~name ~demand_bps =
  if demand_bps < 0.0 then invalid_arg "Rcs.leaf: demand must be non-negative";
  Leaf { name; weight = 1.0; demand = demand_bps }

let weighted weight t =
  if weight <= 0.0 then invalid_arg "Rcs.weighted: weight must be positive";
  match t with
  | Leaf l -> Leaf { l with weight }
  | Node n -> Node { n with weight }

let node ~name children =
  if (match children with [] -> true | _ :: _ -> false) then invalid_arg "Rcs.node: needs at least one child";
  Node { name; weight = 1.0; children }

let weight = function Leaf { weight; _ } | Node { weight; _ } -> weight

let rec total_demand = function
  | Leaf { demand; _ } -> demand
  | Node { children; _ } ->
      List.fold_left (fun acc child -> acc +. total_demand child) 0.0 children

let rec collect_names acc = function
  | Leaf { name; _ } -> name :: acc
  | Node { children; _ } -> List.fold_left collect_names acc children

let allocate ~capacity_bps tree =
  if capacity_bps < 0.0 then invalid_arg "Rcs.allocate: negative capacity";
  let names = collect_names [] tree in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Rcs.allocate: duplicate leaf names";
  let rec go grant tree acc =
    match tree with
    | Leaf { name; demand; _ } -> (name, Float.min grant demand) :: acc
    | Node { children; _ } ->
        let demands = Array.of_list (List.map total_demand children) in
        let weights = Array.of_list (List.map weight children) in
        let grants =
          Ccsim_util.Fairness.max_min_with_weights ~capacity:grant ~demands ~weights
        in
        List.fold_left
          (fun (acc, i) child -> (go grants.(i) child acc, i + 1))
          (acc, 0) children
        |> fst
  in
  List.rev (go capacity_bps tree [])

let allocation_for allocations name = List.assoc name allocations
