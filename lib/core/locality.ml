open Qturbo_aais
open Qturbo_graph

type component = { id : int; channel_ids : int list; var_ids : int list }

let decompose ~channels ~n_vars =
  let n_channels = Array.length channels in
  (* nodes: [0, n_channels) are channels, [n_channels, n_channels+n_vars)
     are variables *)
  let uf = Union_find.create (n_channels + n_vars) in
  Array.iteri
    (fun k (c : Instruction.channel) ->
      assert (c.Instruction.cid = k);
      Array.iter
        (fun v ->
          if v < 0 || v >= n_vars then
            invalid_arg "Locality.decompose: variable id out of range";
          Union_find.union uf k (n_channels + v))
        c.Instruction.ids)
    channels;
  let groups = Union_find.groups uf in
  let components =
    Array.to_list groups
    |> List.filter_map (fun members ->
           let channel_ids = List.filter (fun m -> m < n_channels) members in
           let var_ids =
             List.filter_map
               (fun m -> if m >= n_channels then Some (m - n_channels) else None)
               members
           in
           if channel_ids = [] then None
           else Some (channel_ids, var_ids))
  in
  let min_cid = function [] -> max_int | c :: _ -> c in
  let sorted =
    List.sort
      (fun (c1, _) (c2, _) -> Int.compare (min_cid c1) (min_cid c2))
      components
  in
  List.mapi (fun id (channel_ids, var_ids) -> { id; channel_ids; var_ids }) sorted

let component_of_channel components cid =
  List.find (fun c -> List.mem cid c.channel_ids) components
