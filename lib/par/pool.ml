type t = unit

let create ?(jobs = 1) () =
  if jobs <> 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs = %d, but the replay engine runs on one domain" jobs)
