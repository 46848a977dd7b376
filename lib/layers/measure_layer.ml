let wrap ?clock ~metrics lower =
  let observe op result =
    Metrics.incr metrics ("measure." ^ op ^ ".calls");
    (match result with
     | Ok _ -> ()
     | Error _ -> Metrics.incr metrics ("measure." ^ op ^ ".errors"));
    result
  in
  let timed op f =
    match clock with
    | None -> observe op (f ())
    | Some clock ->
      let t0 = Clock.now clock in
      let result = f () in
      Metrics.observe metrics ("measure." ^ op ^ ".ticks") (Clock.now clock - t0);
      observe op result
  in
  (* The measured vnode exposes the lower layer's [data] unchanged, so
     sibling-vnode operations (rename, link) keep working: the lower
     layer recognizes its own vnodes through the measurement skin. *)
  let rec make (lower : Vnode.t) =
    Vnode.forward ~hook:{ Vnode.around = timed } ~data:lower.Vnode.data ~wrap:make
      ~unwrap:Result.ok lower
  in
  make lower

let report metrics =
  Counters.snapshot (Metrics.counters metrics)
  |> List.filter_map (fun (name, calls) ->
         match String.split_on_char '.' name with
         | [ "measure"; op; "calls" ] ->
           Some (op, calls, Metrics.counter metrics ("measure." ^ op ^ ".errors"))
         | _ -> None)
  |> List.sort compare
