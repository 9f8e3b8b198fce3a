let exec_one ?cache ~queue_wait_s (job : Job.t) : Job.result =
  let result ~output ~error ~cache_hit ~wall_s =
    {
      Job.name = job.name;
      digest = job.digest;
      output;
      ok = Option.is_none error;
      error;
      cache_hit;
      queue_wait_s;
      wall_s;
      degraded = false;
    }
  in
  match Option.bind cache (fun c -> Cache.find c job.digest) with
  | Some output -> result ~output ~error:None ~cache_hit:true ~wall_s:0.0
  | None -> (
      let started = Unix.gettimeofday () in
      let outcome = match job.run () with output -> Ok output | exception e -> Error e in
      let wall_s = Unix.gettimeofday () -. started in
      match outcome with
      | Ok output ->
          Option.iter (fun c -> Cache.store c ~digest:job.digest output) cache;
          result ~output ~error:None ~cache_hit:false ~wall_s
      | Error e ->
          let msg = Printexc.to_string e in
          result ~output:(Job.error_row ~name:job.name msg) ~error:(Some msg) ~cache_hit:false
            ~wall_s)

let run ~jobs:workers ?cache jobs_list =
  let jobs = Array.of_list jobs_list in
  let n = Array.length jobs in
  let results = Array.make n None in
  let submitted = Unix.gettimeofday () in
  let work i =
    let queue_wait_s = Unix.gettimeofday () -. submitted in
    results.(i) <- Some (exec_one ?cache ~queue_wait_s jobs.(i))
  in
  if workers <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      work i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          work i;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min workers n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains
  end;
  Array.map (function Some r -> r | None -> assert false) results
