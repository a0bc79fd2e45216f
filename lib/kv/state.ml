include Map.Make (String)
