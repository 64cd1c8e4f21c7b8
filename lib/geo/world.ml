(* Metro database: (name, country, continent, lat, lon, population in
   millions).  Coordinates and populations are approximate metro-area
   figures; what matters for the simulation is relative geography and
   relative demand, not census precision. *)
let raw =
  [|
    (* North America *)
    ("New York", "US", "NA", 40.71, -74.01, 19.8);
    ("Los Angeles", "US", "NA", 34.05, -118.24, 13.2);
    ("Chicago", "US", "NA", 41.88, -87.63, 9.5);
    ("Dallas", "US", "NA", 32.78, -96.80, 7.6);
    ("Houston", "US", "NA", 29.76, -95.37, 7.1);
    ("Washington", "US", "NA", 38.91, -77.04, 6.3);
    ("Miami", "US", "NA", 25.76, -80.19, 6.1);
    ("Atlanta", "US", "NA", 33.75, -84.39, 6.0);
    ("Boston", "US", "NA", 42.36, -71.06, 4.9);
    ("Phoenix", "US", "NA", 33.45, -112.07, 4.8);
    ("San Francisco", "US", "NA", 37.77, -122.42, 4.7);
    ("Seattle", "US", "NA", 47.61, -122.33, 4.0);
    ("Denver", "US", "NA", 39.74, -104.99, 3.0);
    ("Minneapolis", "US", "NA", 44.98, -93.27, 3.7);
    ("San Jose", "US", "NA", 37.34, -121.89, 2.0);
    ("Ashburn", "US", "NA", 39.04, -77.49, 0.4);
    ("Kansas City", "US", "NA", 39.10, -94.58, 2.2);
    ("Salt Lake City", "US", "NA", 40.76, -111.89, 1.2);
    ("Portland", "US", "NA", 45.52, -122.68, 2.5);
    ("Toronto", "CA", "NA", 43.65, -79.38, 6.4);
    ("Montreal", "CA", "NA", 45.50, -73.57, 4.3);
    ("Vancouver", "CA", "NA", 49.28, -123.12, 2.6);
    ("Mexico City", "MX", "NA", 19.43, -99.13, 21.8);
    ("Guadalajara", "MX", "NA", 20.67, -103.35, 5.3);
    ("Monterrey", "MX", "NA", 25.69, -100.32, 5.3);
    ("Panama City", "PA", "NA", 8.98, -79.52, 1.9);
    ("San Juan", "PR", "NA", 18.47, -66.11, 2.4);
    ("Guatemala City", "GT", "NA", 14.63, -90.51, 3.0);
    (* South America *)
    ("Sao Paulo", "BR", "SA", -23.55, -46.63, 22.0);
    ("Rio de Janeiro", "BR", "SA", -22.91, -43.17, 13.5);
    ("Fortaleza", "BR", "SA", -3.73, -38.53, 4.1);
    ("Porto Alegre", "BR", "SA", -30.03, -51.23, 4.3);
    ("Brasilia", "BR", "SA", -15.79, -47.88, 4.7);
    ("Buenos Aires", "AR", "SA", -34.60, -58.38, 15.3);
    ("Santiago", "CL", "SA", -33.45, -70.67, 6.8);
    ("Lima", "PE", "SA", -12.05, -77.04, 10.9);
    ("Bogota", "CO", "SA", 4.71, -74.07, 11.0);
    ("Medellin", "CO", "SA", 6.25, -75.56, 4.0);
    ("Caracas", "VE", "SA", 10.48, -66.90, 2.9);
    ("Quito", "EC", "SA", -0.18, -78.47, 2.0);
    ("Montevideo", "UY", "SA", -34.90, -56.16, 1.8);
    ("Asuncion", "PY", "SA", -25.26, -57.58, 2.3);
    ("La Paz", "BO", "SA", -16.49, -68.12, 1.9);
    (* Europe *)
    ("London", "GB", "EU", 51.51, -0.13, 14.3);
    ("Manchester", "GB", "EU", 53.48, -2.24, 2.9);
    ("Paris", "FR", "EU", 48.86, 2.35, 13.0);
    ("Marseille", "FR", "EU", 43.30, 5.37, 1.9);
    ("Frankfurt", "DE", "EU", 50.11, 8.68, 2.7);
    ("Berlin", "DE", "EU", 52.52, 13.41, 4.5);
    ("Munich", "DE", "EU", 48.14, 11.58, 2.9);
    ("Hamburg", "DE", "EU", 53.55, 9.99, 3.2);
    ("Amsterdam", "NL", "EU", 52.37, 4.90, 2.8);
    ("Brussels", "BE", "EU", 50.85, 4.35, 2.1);
    ("Madrid", "ES", "EU", 40.42, -3.70, 6.7);
    ("Barcelona", "ES", "EU", 41.39, 2.17, 5.6);
    ("Lisbon", "PT", "EU", 38.72, -9.14, 2.9);
    ("Milan", "IT", "EU", 45.46, 9.19, 4.3);
    ("Rome", "IT", "EU", 41.90, 12.50, 4.3);
    ("Zurich", "CH", "EU", 47.37, 8.54, 1.4);
    ("Vienna", "AT", "EU", 48.21, 16.37, 2.9);
    ("Prague", "CZ", "EU", 50.08, 14.44, 2.7);
    ("Warsaw", "PL", "EU", 52.23, 21.01, 3.1);
    ("Budapest", "HU", "EU", 47.50, 19.04, 3.0);
    ("Bucharest", "RO", "EU", 44.43, 26.10, 2.3);
    ("Sofia", "BG", "EU", 42.70, 23.32, 1.7);
    ("Athens", "GR", "EU", 37.98, 23.73, 3.6);
    ("Stockholm", "SE", "EU", 59.33, 18.07, 2.4);
    ("Copenhagen", "DK", "EU", 55.68, 12.57, 2.1);
    ("Oslo", "NO", "EU", 59.91, 10.75, 1.6);
    ("Helsinki", "FI", "EU", 60.17, 24.94, 1.5);
    ("Dublin", "IE", "EU", 53.35, -6.26, 2.1);
    ("Kyiv", "UA", "EU", 50.45, 30.52, 3.0);
    ("Moscow", "RU", "EU", 55.76, 37.62, 17.1);
    ("Saint Petersburg", "RU", "EU", 59.93, 30.34, 5.4);
    ("Istanbul", "TR", "EU", 41.01, 28.98, 15.5);
    ("Zagreb", "HR", "EU", 45.81, 15.98, 1.1);
    ("Belgrade", "RS", "EU", 44.79, 20.45, 1.7);
    (* Asia & Middle East *)
    ("Tokyo", "JP", "AS", 35.68, 139.69, 37.3);
    ("Osaka", "JP", "AS", 34.69, 135.50, 19.1);
    ("Seoul", "KR", "AS", 37.57, 126.98, 25.5);
    ("Beijing", "CN", "AS", 39.90, 116.41, 20.9);
    ("Shanghai", "CN", "AS", 31.23, 121.47, 28.5);
    ("Shenzhen", "CN", "AS", 22.54, 114.06, 12.6);
    ("Hong Kong", "HK", "AS", 22.32, 114.17, 7.5);
    ("Taipei", "TW", "AS", 25.03, 121.57, 7.0);
    ("Singapore", "SG", "AS", 1.35, 103.82, 5.9);
    ("Kuala Lumpur", "MY", "AS", 3.14, 101.69, 8.4);
    ("Jakarta", "ID", "AS", -6.21, 106.85, 33.4);
    ("Surabaya", "ID", "AS", -7.26, 112.75, 9.5);
    ("Bangkok", "TH", "AS", 13.76, 100.50, 17.1);
    ("Manila", "PH", "AS", 14.60, 120.98, 24.3);
    ("Ho Chi Minh City", "VN", "AS", 10.82, 106.63, 13.9);
    ("Hanoi", "VN", "AS", 21.03, 105.85, 8.2);
    ("Mumbai", "IN", "AS", 19.08, 72.88, 20.7);
    ("Delhi", "IN", "AS", 28.70, 77.10, 31.2);
    ("Bangalore", "IN", "AS", 12.97, 77.59, 12.8);
    ("Chennai", "IN", "AS", 13.08, 80.27, 11.2);
    ("Hyderabad", "IN", "AS", 17.39, 78.49, 10.2);
    ("Kolkata", "IN", "AS", 22.57, 88.36, 14.9);
    ("Karachi", "PK", "AS", 24.86, 67.00, 16.5);
    ("Lahore", "PK", "AS", 31.55, 74.34, 13.1);
    ("Dhaka", "BD", "AS", 23.81, 90.41, 22.0);
    ("Colombo", "LK", "AS", 6.93, 79.85, 2.4);
    ("Kathmandu", "NP", "AS", 27.72, 85.32, 1.5);
    ("Dubai", "AE", "AS", 25.20, 55.27, 3.5);
    ("Riyadh", "SA", "AS", 24.71, 46.68, 7.7);
    ("Jeddah", "SA", "AS", 21.49, 39.19, 4.8);
    ("Doha", "QA", "AS", 25.29, 51.53, 2.4);
    ("Tel Aviv", "IL", "AS", 32.09, 34.78, 4.4);
    ("Amman", "JO", "AS", 31.96, 35.95, 2.2);
    ("Baghdad", "IQ", "AS", 33.31, 44.37, 7.5);
    ("Tehran", "IR", "AS", 35.69, 51.39, 9.5);
    ("Almaty", "KZ", "AS", 43.24, 76.89, 2.0);
    ("Tashkent", "UZ", "AS", 41.30, 69.24, 2.6);
    (* Africa *)
    ("Cairo", "EG", "AF", 30.04, 31.24, 21.3);
    ("Lagos", "NG", "AF", 6.52, 3.38, 15.4);
    ("Kinshasa", "CD", "AF", -4.44, 15.27, 15.6);
    ("Johannesburg", "ZA", "AF", -26.20, 28.05, 10.0);
    ("Cape Town", "ZA", "AF", -33.92, 18.42, 4.8);
    ("Nairobi", "KE", "AF", -1.29, 36.82, 5.1);
    ("Accra", "GH", "AF", 5.60, -0.19, 2.6);
    ("Casablanca", "MA", "AF", 33.57, -7.59, 3.8);
    ("Algiers", "DZ", "AF", 36.75, 3.06, 2.9);
    ("Tunis", "TN", "AF", 36.81, 10.18, 2.4);
    ("Addis Ababa", "ET", "AF", 9.03, 38.74, 5.0);
    ("Dar es Salaam", "TZ", "AF", -6.79, 39.21, 7.0);
    ("Abidjan", "CI", "AF", 5.36, -4.01, 5.6);
    ("Dakar", "SN", "AF", 14.72, -17.47, 3.3);
    ("Kampala", "UG", "AF", 0.35, 32.58, 3.7);
    (* Oceania *)
    ("Sydney", "AU", "OC", -33.87, 151.21, 5.3);
    ("Melbourne", "AU", "OC", -37.81, 144.96, 5.1);
    ("Brisbane", "AU", "OC", -27.47, 153.03, 2.6);
    ("Perth", "AU", "OC", -31.95, 115.86, 2.1);
    ("Adelaide", "AU", "OC", -34.93, 138.60, 1.4);
    ("Auckland", "NZ", "OC", -36.85, 174.76, 1.7);
    ("Wellington", "NZ", "OC", -41.29, 174.78, 0.4);
    ("Suva", "FJ", "OC", -18.14, 178.44, 0.3);
    (* Secondary North America *)
    ("Detroit", "US", "NA", 42.33, -83.05, 4.3);
    ("Philadelphia", "US", "NA", 39.95, -75.17, 6.2);
    ("San Diego", "US", "NA", 32.72, -117.16, 3.3);
    ("Tampa", "US", "NA", 27.95, -82.46, 3.2);
    ("St. Louis", "US", "NA", 38.63, -90.20, 2.8);
    ("Charlotte", "US", "NA", 35.23, -80.84, 2.7);
    ("Calgary", "CA", "NA", 51.05, -114.07, 1.6);
    ("Ottawa", "CA", "NA", 45.42, -75.70, 1.4);
    ("Havana", "CU", "NA", 23.11, -82.37, 2.1);
    ("Santo Domingo", "DO", "NA", 18.49, -69.93, 3.3);
    ("San Jose CR", "CR", "NA", 9.93, -84.08, 1.4);
    ("Kingston", "JM", "NA", 17.97, -76.79, 1.2);
    ("Tegucigalpa", "HN", "NA", 14.07, -87.19, 1.4);
    ("San Salvador", "SV", "NA", 13.69, -89.22, 1.8);
    (* Secondary South America *)
    ("Salvador", "BR", "SA", -12.97, -38.50, 3.9);
    ("Recife", "BR", "SA", -8.05, -34.90, 4.1);
    ("Curitiba", "BR", "SA", -25.43, -49.27, 3.7);
    ("Guayaquil", "EC", "SA", -2.19, -79.89, 3.1);
    ("Cali", "CO", "SA", 3.45, -76.53, 2.8);
    ("Cordoba", "AR", "SA", -31.42, -64.18, 1.6);
    ("Georgetown", "GY", "SA", 6.80, -58.16, 0.4);
    (* Secondary Europe *)
    ("Lyon", "FR", "EU", 45.76, 4.84, 2.3);
    ("Turin", "IT", "EU", 45.07, 7.69, 2.2);
    ("Naples", "IT", "EU", 40.85, 14.27, 3.1);
    ("Valencia", "ES", "EU", 39.47, -0.38, 2.5);
    ("Porto", "PT", "EU", 41.16, -8.63, 1.7);
    ("Krakow", "PL", "EU", 50.06, 19.94, 1.8);
    ("Rotterdam", "NL", "EU", 51.92, 4.48, 1.8);
    ("Birmingham", "GB", "EU", 52.49, -1.89, 3.1);
    ("Glasgow", "GB", "EU", 55.86, -4.25, 1.9);
    ("Bratislava", "SK", "EU", 48.15, 17.11, 0.7);
    ("Vilnius", "LT", "EU", 54.69, 25.28, 0.8);
    ("Riga", "LV", "EU", 56.95, 24.11, 1.0);
    ("Tallinn", "EE", "EU", 59.44, 24.75, 0.6);
    ("Minsk", "BY", "EU", 53.90, 27.57, 2.0);
    ("Chisinau", "MD", "EU", 47.01, 28.86, 0.7);
    ("Sarajevo", "BA", "EU", 43.86, 18.41, 0.6);
    ("Tirana", "AL", "EU", 41.33, 19.82, 0.9);
    ("Ankara", "TR", "EU", 39.93, 32.86, 5.7);
    (* Central Asia, Caucasus, more Middle East *)
    ("Tbilisi", "GE", "AS", 41.72, 44.83, 1.2);
    ("Yerevan", "AM", "AS", 40.18, 44.51, 1.1);
    ("Baku", "AZ", "AS", 40.41, 49.87, 2.3);
    ("Bishkek", "KG", "AS", 42.87, 74.59, 1.1);
    ("Astana", "KZ", "AS", 51.17, 71.45, 1.2);
    ("Kuwait City", "KW", "AS", 29.38, 47.99, 3.1);
    ("Muscat", "OM", "AS", 23.59, 58.41, 1.6);
    ("Manama", "BH", "AS", 26.23, 50.59, 0.7);
    ("Beirut", "LB", "AS", 33.89, 35.50, 2.4);
    (* More Asia *)
    ("Pune", "IN", "AS", 18.52, 73.86, 7.2);
    ("Ahmedabad", "IN", "AS", 23.02, 72.57, 8.0);
    ("Islamabad", "PK", "AS", 33.68, 73.05, 1.2);
    ("Chittagong", "BD", "AS", 22.36, 91.78, 5.2);
    ("Yangon", "MM", "AS", 16.87, 96.20, 5.4);
    ("Phnom Penh", "KH", "AS", 11.56, 104.92, 2.2);
    ("Vientiane", "LA", "AS", 17.98, 102.63, 0.9);
    ("Ulaanbaatar", "MN", "AS", 47.89, 106.91, 1.6);
    ("Busan", "KR", "AS", 35.18, 129.08, 3.4);
    ("Nagoya", "JP", "AS", 35.18, 136.91, 9.4);
    ("Fukuoka", "JP", "AS", 33.59, 130.40, 5.5);
    ("Chengdu", "CN", "AS", 30.57, 104.07, 16.0);
    ("Guangzhou", "CN", "AS", 23.13, 113.26, 18.7);
    ("Cebu", "PH", "AS", 10.32, 123.89, 3.0);
    ("Medan", "ID", "AS", 3.59, 98.67, 2.5);
    (* More Africa *)
    ("Durban", "ZA", "AF", -29.86, 31.02, 3.5);
    ("Abuja", "NG", "AF", 9.06, 7.49, 3.6);
    ("Kano", "NG", "AF", 12.00, 8.52, 4.1);
    ("Luanda", "AO", "AF", -8.84, 13.23, 8.3);
    ("Maputo", "MZ", "AF", -25.97, 32.57, 1.8);
    ("Lusaka", "ZM", "AF", -15.39, 28.32, 2.9);
    ("Harare", "ZW", "AF", -17.83, 31.05, 2.1);
    ("Kigali", "RW", "AF", -1.94, 30.06, 1.2);
    ("Khartoum", "SD", "AF", 15.50, 32.56, 5.8);
    ("Alexandria", "EG", "AF", 31.20, 29.92, 5.4);
    ("Douala", "CM", "AF", 4.05, 9.77, 3.8);
    ("Bamako", "ML", "AF", 12.64, -8.00, 2.7);
    ("Antananarivo", "MG", "AF", -18.88, 47.51, 3.4);
  |]

let cities =
  Array.mapi
    (fun id (name, country, cont, lat, lon, population_m) ->
      let continent =
        match Region.continent_of_string cont with
        | Some c -> c
        | None -> assert false (* table above only uses valid codes *)
      in
      {
        City.id;
        name;
        country;
        continent;
        coord = Coord.make ~lat ~lon;
        population_m;
      })
    raw

let count = Array.length cities

let find name =
  Array.find_opt (fun (c : City.t) -> c.name = name) cities

let find_exn name =
  match find name with Some c -> c | None -> raise Not_found

let continent_table =
  List.map
    (fun continent ->
      ( continent,
        Array.to_list cities
        |> List.filter (fun (c : City.t) -> c.continent = continent) ))
    Region.all_continents

let by_continent continent = List.assoc continent continent_table

let countries =
  let module S = Set.Make (String) in
  Array.fold_left (fun s (c : City.t) -> S.add c.country s) S.empty cities
  |> S.elements

(* Built once and only read afterwards, so domains share it safely. *)
let country_table =
  let t = Hashtbl.create (List.length countries) in
  for i = Array.length cities - 1 downto 0 do
    let c = cities.(i) in
    Hashtbl.replace t c.country
      (c :: Option.value (Hashtbl.find_opt t c.country) ~default:[])
  done;
  t

let by_country country =
  Option.value (Hashtbl.find_opt country_table country) ~default:[]

let nearest coord =
  let best = ref cities.(0) and best_d = ref infinity in
  Array.iter
    (fun (c : City.t) ->
      let d = Coord.haversine_km coord c.coord in
      if d < !best_d then begin
        best_d := d;
        best := c
      end)
    cities;
  !best

let total_population_m =
  Array.fold_left (fun acc (c : City.t) -> acc +. c.population_m) 0. cities

let population_weights =
  Array.map (fun (c : City.t) -> c.population_m /. total_population_m) cities

(* The classic interconnection hubs: metros whose colocation density
   far exceeds what population predicts. *)
let interconnection_hubs =
  [
    "New York"; "Ashburn"; "Chicago"; "Dallas"; "Miami"; "Los Angeles";
    "San Jose"; "San Francisco"; "Seattle"; "Toronto";
    "London"; "Frankfurt"; "Amsterdam"; "Paris"; "Madrid"; "Milan";
    "Stockholm"; "Warsaw"; "Marseille";
    "Sao Paulo"; "Buenos Aires"; "Bogota";
    "Tokyo"; "Singapore"; "Hong Kong"; "Mumbai"; "Dubai"; "Seoul";
    "Sydney"; "Johannesburg"; "Lagos"; "Nairobi";
  ]

let hub_score (c : City.t) =
  if List.mem c.name interconnection_hubs then c.population_m *. 12.
  else c.population_m

let hub_scores = Array.map hub_score cities
