type knob = { name : string; default : int; doc : string }

let knobs =
  [
    {
      name = "DPFUZZ_ITERS";
      default = 25;
      doc = "Random cases per @fuzz differential-fuzz run";
    };
    {
      name = "DPCHECK_ITERS";
      default = 200;
      doc = "Random cases per @check sanitizer-mode fuzz smoke";
    };
    {
      name = "DPOPTD_REQS";
      default = 200;
      doc = "Synthetic requests per @serve compile-service smoke";
    };
    {
      name = "NATIVE_SMOKE_ITERS";
      default = 3;
      doc = "Repeated native executions per @native backend smoke";
    };
    {
      name = "MT_SMOKE_JOBS";
      default = 6;
      doc = "Jobs per tenant in the @mt multi-tenant smoke";
    };
    {
      name = "SCALE_JOBS";
      default = 4;
      doc = "Worker domains for the @scale parallel-dispatch gate";
    };
    {
      name = "SCALE_SMOKE";
      default = 2;
      doc = "Medium-tier specs checked by the @scale extrapolation gate";
    };
  ]

let find name =
  match List.find_opt (fun k -> k.name = name) knobs with
  | Some k -> k
  | None -> invalid_arg (Fmt.str "Harness.Env: unknown knob %S" name)

let default name = (find name).default

let get name =
  let k = find name in
  match Sys.getenv_opt k.name with
  | None -> k.default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> k.default)
