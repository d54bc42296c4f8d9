//! Parameter-value datasets (§3.3 of the paper).
//!
//! Genie ships a database of 49 parameter lists and gazettes of named
//! entities — YouTube video titles, Twitter hashtags, song titles, people
//! names, country names, currencies, and corpora of free-form English text —
//! used to expand the synthesized and paraphrase datasets so the model does
//! not overfit on specific values.
//!
//! The paper's corpora were scraped from the web; here they are generated
//! from embedded word lists and combinatorial generators, which preserves the
//! property the pipeline needs (many distinct, plausible, typed values) while
//! keeping the repository self-contained. See DESIGN.md for the substitution
//! rationale.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rand::seq::SliceRandom;
use rand::Rng;

use thingtalk::types::Type;

const FIRST_NAMES: &[&str] = &[
    "alice", "bob", "carol", "david", "emma", "frank", "grace", "henry", "isabel", "jack", "karen",
    "liam", "maria", "nathan", "olivia", "peter", "quinn", "rachel", "samuel", "tina", "umar",
    "victor", "wendy", "xavier", "yasmin", "zach", "noah", "mia", "lucas", "sofia", "ethan", "ava",
    "mason", "amelia", "logan", "harper", "elijah", "ella", "james", "scarlett",
];

const LAST_NAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
];

const ADJECTIVES: &[&str] = &[
    "funny",
    "amazing",
    "broken",
    "quiet",
    "loud",
    "bright",
    "dark",
    "tiny",
    "huge",
    "quick",
    "lazy",
    "happy",
    "sad",
    "angry",
    "calm",
    "wild",
    "gentle",
    "brave",
    "shy",
    "clever",
    "ancient",
    "modern",
    "crispy",
    "smooth",
    "rough",
    "golden",
    "silver",
    "crimson",
    "azure",
    "emerald",
    "hidden",
    "secret",
    "famous",
    "forgotten",
    "electric",
    "frozen",
    "burning",
    "silent",
    "endless",
    "lucky",
];

const NOUNS: &[&str] = &[
    "cat",
    "dog",
    "river",
    "mountain",
    "city",
    "garden",
    "robot",
    "dream",
    "song",
    "story",
    "journey",
    "shadow",
    "light",
    "storm",
    "ocean",
    "forest",
    "castle",
    "bridge",
    "train",
    "rocket",
    "planet",
    "island",
    "desert",
    "winter",
    "summer",
    "morning",
    "midnight",
    "coffee",
    "breakfast",
    "library",
    "museum",
    "market",
    "festival",
    "harbor",
    "village",
    "engine",
    "mirror",
    "harvest",
    "lantern",
    "compass",
];

const VERBS: &[&str] = &[
    "remember", "forget", "find", "lose", "build", "break", "open", "close", "start", "finish",
    "love", "hate", "watch", "read", "write", "sing", "dance", "run", "walk", "fly",
];

const CITIES: &[&str] = &[
    "san francisco",
    "palo alto",
    "new york",
    "london",
    "paris",
    "tokyo",
    "beijing",
    "sydney",
    "berlin",
    "madrid",
    "rome",
    "seattle",
    "austin",
    "boston",
    "chicago",
    "toronto",
    "vancouver",
    "mexico city",
    "sao paulo",
    "mumbai",
    "delhi",
    "singapore",
    "seoul",
    "dubai",
    "amsterdam",
    "stockholm",
    "oslo",
    "helsinki",
    "zurich",
    "vienna",
    "prague",
    "lisbon",
    "dublin",
    "edinburgh",
    "cairo",
    "nairobi",
    "lagos",
    "buenos aires",
    "santiago",
    "lima",
];

const COUNTRIES: &[&str] = &[
    "united states",
    "canada",
    "mexico",
    "brazil",
    "argentina",
    "united kingdom",
    "france",
    "germany",
    "italy",
    "spain",
    "portugal",
    "netherlands",
    "belgium",
    "sweden",
    "norway",
    "finland",
    "denmark",
    "switzerland",
    "austria",
    "poland",
    "czech republic",
    "greece",
    "turkey",
    "egypt",
    "kenya",
    "nigeria",
    "south africa",
    "india",
    "china",
    "japan",
    "south korea",
    "vietnam",
    "thailand",
    "indonesia",
    "australia",
    "new zealand",
    "russia",
    "ukraine",
    "ireland",
    "iceland",
    "chile",
    "peru",
    "colombia",
    "morocco",
    "israel",
];

const CURRENCY_CODES: &[&str] = &[
    "USD", "EUR", "GBP", "JPY", "CAD", "AUD", "CHF", "CNY", "INR", "BRL", "MXN", "KRW", "SEK",
    "NOK", "DKK", "SGD", "HKD", "NZD", "ZAR", "TRY",
];

const TOPICS: &[&str] = &[
    "rust",
    "climate",
    "election",
    "football",
    "basketball",
    "music",
    "movies",
    "cooking",
    "travel",
    "photography",
    "science",
    "space",
    "ai",
    "privacy",
    "security",
    "startups",
    "fashion",
    "gaming",
    "books",
    "health",
    "fitness",
    "economy",
    "art",
    "history",
    "weather",
    "gardening",
    "coffee",
    "wine",
    "cycling",
    "hiking",
];

const EMAIL_DOMAINS: &[&str] = &[
    "gmail.com",
    "yahoo.com",
    "outlook.com",
    "example.com",
    "stanford.edu",
    "mit.edu",
    "company.org",
    "startup.io",
];

const FILE_EXTENSIONS: &[&str] = &[
    "pdf", "txt", "docx", "xlsx", "pptx", "jpg", "png", "md", "csv", "zip",
];

const GENRES: &[&str] = &[
    "pop",
    "rock",
    "jazz",
    "classical",
    "hip hop",
    "country",
    "electronic",
    "folk",
    "blues",
    "reggae",
    "metal",
    "indie",
    "soul",
    "punk",
    "disco",
];

/// A named list of parameter values of one kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDataset {
    /// The dataset key, e.g. `tt:person_name`, `com.spotify:song`.
    pub name: String,
    /// The distinct values.
    pub values: Vec<String>,
}

impl ParamDataset {
    fn new(name: &str, values: Vec<String>) -> Self {
        ParamDataset {
            name: name.to_owned(),
            values,
        }
    }

    /// Sample one value uniformly at random.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &str {
        self.values
            .choose(rng)
            .map(String::as_str)
            .unwrap_or("placeholder")
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The registry of parameter-value datasets.
#[derive(Debug, Clone, Default)]
pub struct ParamDatasets {
    datasets: BTreeMap<String, ParamDataset>,
}

impl ParamDatasets {
    /// The builtin registry of 49 datasets, built once per process. The
    /// registry has no mutating method, so every generator, pipeline and
    /// simulator borrows this one copy; callers that need an owned registry
    /// clone it.
    pub fn builtin() -> &'static ParamDatasets {
        static BUILTIN: OnceLock<ParamDatasets> = OnceLock::new();
        BUILTIN.get_or_init(|| ParamDatasets {
            datasets: build_all()
                .into_iter()
                .map(|dataset| (dataset.name.clone(), dataset))
                .collect(),
        })
    }

    /// Look up a dataset by exact key.
    pub fn get(&self, name: &str) -> Option<&ParamDataset> {
        self.datasets.get(name)
    }

    /// Number of datasets.
    pub fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    /// Total number of distinct values across all datasets.
    pub fn total_values(&self) -> usize {
        self.datasets.values().map(|d| d.len()).sum()
    }

    /// Iterate over all datasets.
    pub fn datasets(&self) -> impl Iterator<Item = &ParamDataset> {
        self.datasets.values()
    }

    /// Choose the dataset appropriate for a parameter, based on its type and
    /// its name. Entity types map to their own gazette when one exists;
    /// string parameters are routed by name heuristics (titles, messages,
    /// queries, captions, …) and fall back to the free-form text corpus.
    ///
    /// # Errors
    ///
    /// Returns [`thingtalk::Error::MissingResource`] when neither the routed
    /// dataset nor the `tt:free_form_text` fallback exists in the registry —
    /// possible only for hand-assembled registries, never for
    /// [`ParamDatasets::builtin`]. (Historically this path panicked; serving
    /// converts it into a request error instead.)
    pub fn for_param(&self, ty: &Type, param_name: &str) -> thingtalk::Result<&ParamDataset> {
        let key = match ty {
            Type::Entity(kind) => {
                if self.datasets.contains_key(kind.as_str()) {
                    kind.clone()
                } else if kind.ends_with(":person") || kind == "tt:contact_name" {
                    "tt:person_name".to_owned()
                } else {
                    "tt:generic_entity".to_owned()
                }
            }
            Type::PathName => "tt:path_name".to_owned(),
            Type::Url => "tt:url".to_owned(),
            Type::Picture => "tt:picture_url".to_owned(),
            Type::EmailAddress => "tt:email_address".to_owned(),
            Type::PhoneNumber => "tt:phone_number".to_owned(),
            Type::Location => "tt:location".to_owned(),
            Type::String => {
                let name = param_name.to_lowercase();
                if name.contains("query") || name.contains("search") || name.contains("keyword") {
                    "tt:search_query".to_owned()
                } else if name.contains("message")
                    || name.contains("body")
                    || name.contains("text")
                    || name.contains("status")
                {
                    "tt:message_text".to_owned()
                } else if name.contains("caption") {
                    "tt:caption".to_owned()
                } else if name.contains("title") || name.contains("subject") {
                    "tt:short_title".to_owned()
                } else if name.contains("channel") {
                    "com.youtube:channel".to_owned()
                } else if name.contains("playlist") {
                    "com.spotify:playlist".to_owned()
                } else if name.contains("song") || name.contains("track") {
                    "com.spotify:song".to_owned()
                } else if name.contains("artist") {
                    "com.spotify:artist".to_owned()
                } else if name.contains("album") {
                    "com.spotify:album".to_owned()
                } else if name.contains("author")
                    || name.contains("name") && name.contains("person")
                {
                    "tt:person_name".to_owned()
                } else if name.contains("city")
                    || name.contains("location")
                    || name.contains("place")
                {
                    "tt:city_name".to_owned()
                } else if name.contains("country") {
                    "tt:country_name".to_owned()
                } else if name.contains("hashtag") || name.contains("tag") {
                    "tt:hashtag".to_owned()
                } else if name.contains("folder") || name.contains("file") || name.contains("path")
                {
                    "tt:path_name".to_owned()
                } else if name.contains("genre") {
                    "tt:music_genre".to_owned()
                } else {
                    "tt:free_form_text".to_owned()
                }
            }
            _ => "tt:free_form_text".to_owned(),
        };
        self.datasets
            .get(&key)
            .or_else(|| self.datasets.get("tt:free_form_text"))
            .ok_or_else(|| {
                thingtalk::Error::missing_resource(format!(
                    "parameter dataset `{key}` (and the `tt:free_form_text` fallback)"
                ))
            })
    }

    /// Sample one value for a parameter, falling back to a fixed placeholder
    /// when no dataset covers it. The infallible convenience over
    /// [`ParamDatasets::for_param`] used by the simulated runtime and the
    /// phrase instantiator, whose value generation cannot fail.
    pub fn sample_for_param<R: Rng + ?Sized>(
        &self,
        ty: &Type,
        param_name: &str,
        rng: &mut R,
    ) -> String {
        match self.for_param(ty, param_name) {
            Ok(dataset) => dataset.sample(rng).to_owned(),
            Err(_) => "placeholder".to_owned(),
        }
    }
}

fn cross2(prefix: &[&str], suffix: &[&str], join: &str, cap: usize) -> Vec<String> {
    let mut out = Vec::new();
    for a in prefix {
        for b in suffix {
            out.push(format!("{a}{join}{b}"));
            if out.len() >= cap {
                return out;
            }
        }
    }
    out
}

fn cross3(a: &[&str], b: &[&str], c: &[&str], join: &str, cap: usize) -> Vec<String> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            for z in c {
                out.push(format!("{x}{join}{y}{join}{z}"));
                if out.len() >= cap {
                    return out;
                }
            }
        }
    }
    out
}

fn numbered(prefix: &str, count: usize) -> Vec<String> {
    (1..=count).map(|i| format!("{prefix} {i}")).collect()
}

fn build_all() -> Vec<ParamDataset> {
    let person_names = cross2(FIRST_NAMES, LAST_NAMES, " ", 1600);
    let usernames: Vec<String> = cross2(FIRST_NAMES, LAST_NAMES, "_", 1600)
        .into_iter()
        .map(|s| format!("@{s}"))
        .collect();
    let song_titles = cross3(VERBS, &["the", "my", "your", "that"], NOUNS, " ", 3200);
    let free_text = cross3(
        &[
            "i want to",
            "please",
            "remember to",
            "do not forget to",
            "let us",
        ],
        VERBS,
        &[
            "the report",
            "my homework",
            "dinner tonight",
            "the meeting notes",
            "a new plan",
            "the groceries",
            "that email",
            "the tickets",
            "our trip",
            "the budget",
        ],
        " ",
        1000,
    );
    let messages = cross3(
        &["hey", "hello", "hi there", "good morning", "quick reminder"],
        &[
            "the meeting is",
            "lunch is",
            "the deadline is",
            "the party is",
            "standup is",
        ],
        &[
            "at noon",
            "tomorrow",
            "on friday",
            "moved to 3pm",
            "cancelled",
            "in room 201",
        ],
        " ",
        1000,
    );
    let captions = cross2(ADJECTIVES, NOUNS, " ", 1600);
    let news_titles = cross3(
        ADJECTIVES,
        NOUNS,
        &[
            "shakes markets",
            "wins election",
            "breaks record",
            "surprises scientists",
            "returns home",
            "goes viral",
            "faces criticism",
            "announces merger",
        ],
        " ",
        2400,
    );
    let video_titles = cross3(
        &["how to", "top 10", "the best", "why i", "unboxing the"],
        ADJECTIVES,
        NOUNS,
        " ",
        2400,
    );
    let hashtags: Vec<String> = TOPICS
        .iter()
        .flat_map(|t| {
            vec![
                format!("#{t}"),
                format!("#{t}life"),
                format!("#{t}daily"),
                format!("#love{t}"),
            ]
        })
        .collect();
    let emails: Vec<String> = FIRST_NAMES
        .iter()
        .flat_map(|f| EMAIL_DOMAINS.iter().map(move |d| format!("{f}@{d}")))
        .collect();
    let phone_numbers: Vec<String> = (0..500)
        .map(|i| format!("+1 650 555 {:04}", (i * 37) % 10_000))
        .collect();
    let path_names: Vec<String> = NOUNS
        .iter()
        .flat_map(|n| {
            FILE_EXTENSIONS
                .iter()
                .map(move |e| format!("{n}_notes.{e}"))
        })
        .chain(NOUNS.iter().map(|n| format!("{n}/")))
        .collect();
    let urls: Vec<String> = TOPICS
        .iter()
        .flat_map(|t| {
            vec![
                format!("https://example.com/{t}"),
                format!("https://blog.example.org/{t}/latest"),
            ]
        })
        .collect();
    let picture_urls: Vec<String> = (0..400)
        .map(|i| format!("https://images.example.com/photo_{i}.jpg"))
        .collect();
    let playlists = cross2(
        ADJECTIVES,
        &[
            "vibes",
            "mix",
            "hits",
            "classics",
            "mood",
            "party",
            "workout",
            "study",
            "focus",
            "road trip",
        ],
        " ",
        400,
    );
    let artists = cross2(
        &["the", "dj", "little", "big", "saint"],
        &[
            "foxes", "rivers", "echoes", "pioneers", "wolves", "sparrows", "giants", "comets",
            "monarchs", "tides", "embers", "harbors",
        ],
        " ",
        200,
    );
    let albums = cross2(
        ADJECTIVES,
        &["nights", "days", "dreams", "roads", "letters", "echoes"],
        " ",
        240,
    );
    let channels = cross2(
        &["daily", "weekly", "the", "planet", "studio"],
        &[
            "tech", "cooking", "science", "music", "news", "travel", "history", "sports",
        ],
        " ",
        200,
    );
    let subreddits: Vec<String> = TOPICS.iter().map(|t| format!("r/{t}")).collect();
    let stock_symbols: Vec<String> = [
        "AAPL", "GOOG", "MSFT", "AMZN", "TSLA", "NVDA", "META", "NFLX", "INTC", "AMD", "ORCL",
        "IBM", "UBER", "LYFT", "SHOP", "SQ", "CRM", "ADBE", "PYPL", "DIS",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let device_names = cross2(
        &[
            "living room",
            "bedroom",
            "kitchen",
            "office",
            "garage",
            "hallway",
        ],
        &["light", "lamp", "speaker", "thermostat", "camera", "plug"],
        " ",
        100,
    );
    let calendar_events = cross2(
        &["team", "project", "weekly", "quarterly", "client"],
        &[
            "standup",
            "review",
            "sync",
            "planning",
            "retrospective",
            "dinner",
            "call",
        ],
        " ",
        100,
    );
    let recipes = cross2(
        ADJECTIVES,
        &[
            "pasta", "curry", "salad", "soup", "tacos", "pancakes", "stew",
        ],
        " ",
        280,
    );

    vec![
        ParamDataset::new("tt:person_name", person_names),
        ParamDataset::new(
            "tt:person_first_name",
            FIRST_NAMES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new("tt:username", usernames),
        ParamDataset::new(
            "tt:contact_name",
            FIRST_NAMES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new("tt:email_address", emails),
        ParamDataset::new("tt:phone_number", phone_numbers),
        ParamDataset::new("tt:hashtag", hashtags),
        ParamDataset::new("tt:search_query", cross2(ADJECTIVES, NOUNS, " ", 2000)),
        ParamDataset::new("tt:message_text", messages),
        ParamDataset::new("tt:caption", captions),
        ParamDataset::new("tt:short_title", cross2(ADJECTIVES, NOUNS, " ", 1200)),
        ParamDataset::new("tt:free_form_text", free_text),
        ParamDataset::new(
            "tt:long_free_text",
            cross3(
                &["note to self:", "draft:", "idea:", "todo:"],
                VERBS,
                &[
                    "the quarterly report before friday",
                    "a surprise party for the team",
                    "the garden fence this weekend",
                    "the slides for monday",
                ],
                " ",
                320,
            ),
        ),
        ParamDataset::new("tt:path_name", path_names),
        ParamDataset::new(
            "tt:folder_name",
            NOUNS.iter().map(|n| format!("{n} documents")).collect(),
        ),
        ParamDataset::new("tt:url", urls),
        ParamDataset::new("tt:picture_url", picture_urls),
        ParamDataset::new(
            "tt:city_name",
            CITIES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new(
            "tt:country_name",
            COUNTRIES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new(
            "tt:location",
            CITIES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new(
            "tt:currency_code",
            CURRENCY_CODES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new(
            "tt:language",
            vec![
                "english",
                "spanish",
                "french",
                "german",
                "italian",
                "chinese",
                "japanese",
                "korean",
                "portuguese",
                "russian",
                "arabic",
                "hindi",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        ParamDataset::new(
            "tt:music_genre",
            GENRES.iter().map(|s| s.to_string()).collect(),
        ),
        ParamDataset::new("tt:generic_entity", numbered("item", 500)),
        ParamDataset::new("com.spotify:song", song_titles),
        ParamDataset::new("com.spotify:artist", artists),
        ParamDataset::new("com.spotify:album", albums),
        ParamDataset::new("com.spotify:playlist", playlists),
        ParamDataset::new("com.youtube:video_title", video_titles),
        ParamDataset::new("com.youtube:channel", channels),
        ParamDataset::new(
            "com.twitter:tweet_text",
            cross3(
                &[
                    "just",
                    "finally",
                    "cannot believe",
                    "so excited that",
                    "thrilled that",
                ],
                VERBS,
                &[
                    "the marathon",
                    "my first paper",
                    "the new release",
                    "this view",
                    "the garden",
                ],
                " ",
                1000,
            ),
        ),
        ParamDataset::new(
            "com.instagram:caption",
            cross2(
                ADJECTIVES,
                &["sunset", "brunch", "hike", "skyline", "latte", "beach day"],
                " ",
                240,
            ),
        ),
        ParamDataset::new("com.reddit:subreddit", subreddits),
        ParamDataset::new(
            "com.github:repo_name",
            cross2(
                NOUNS,
                &["rs", "js", "toolkit", "engine", "cli", "lab"],
                "-",
                240,
            ),
        ),
        ParamDataset::new(
            "com.github:issue_title",
            cross3(
                &["fix", "add", "remove", "improve"],
                ADJECTIVES,
                NOUNS,
                " ",
                1600,
            ),
        ),
        ParamDataset::new("com.yahoo.finance:stock", stock_symbols),
        ParamDataset::new("tt:device_name", device_names),
        ParamDataset::new("tt:calendar_event", calendar_events),
        ParamDataset::new("tt:recipe_name", recipes),
        ParamDataset::new("tt:news_title", news_titles),
        ParamDataset::new(
            "tt:book_title",
            cross2(&["the", "a", "beyond the", "under the"], NOUNS, " ", 160),
        ),
        ParamDataset::new(
            "tt:movie_title",
            cross2(
                &["the last", "return of the", "rise of the", "night of the"],
                NOUNS,
                " ",
                160,
            ),
        ),
        ParamDataset::new(
            "tt:podcast_name",
            cross2(&["talking", "hidden", "daily", "radio"], NOUNS, " ", 160),
        ),
        ParamDataset::new(
            "tt:tv_show",
            cross2(
                &["planet", "house of", "tales of", "masters of"],
                NOUNS,
                " ",
                160,
            ),
        ),
        ParamDataset::new(
            "tt:meme_text",
            cross2(
                &[
                    "one does not simply",
                    "shut up and take my",
                    "y u no",
                    "such",
                ],
                NOUNS,
                " ",
                160,
            ),
        ),
        ParamDataset::new(
            "tt:emoji_reaction",
            vec![
                "thumbsup", "heart", "laughing", "tada", "fire", "eyes", "clap", "rocket",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        ParamDataset::new(
            "tt:slack_channel",
            TOPICS.iter().map(|t| format!("#{t}")).collect(),
        ),
        ParamDataset::new(
            "tt:alarm_label",
            cross2(
                &["wake up", "gym", "meeting", "medication", "pick up kids"],
                &["reminder", "alarm", "alert"],
                " ",
                15,
            ),
        ),
        ParamDataset::new(
            "tt:note_title",
            cross2(
                &["shopping", "reading", "packing", "wish", "todo"],
                &["list", "notes", "ideas"],
                " ",
                15,
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builtin_is_one_registry_per_process() {
        assert!(std::ptr::eq(
            ParamDatasets::builtin(),
            ParamDatasets::builtin()
        ));
    }

    #[test]
    fn builtin_registry_equals_a_fresh_build() {
        let mut fresh = build_all();
        fresh.sort_by(|a, b| a.name.cmp(&b.name));
        let registry: Vec<ParamDataset> = ParamDatasets::builtin().datasets().cloned().collect();
        assert_eq!(registry, fresh);
    }

    #[test]
    fn has_49_datasets() {
        let registry = ParamDatasets::builtin();
        assert_eq!(registry.dataset_count(), 49);
    }

    #[test]
    fn datasets_are_nonempty_and_distinct_valued() {
        let registry = ParamDatasets::builtin();
        for dataset in registry.datasets() {
            assert!(!dataset.is_empty(), "dataset {} is empty", dataset.name);
            let mut values = dataset.values.clone();
            values.sort();
            values.dedup();
            assert_eq!(
                values.len(),
                dataset.values.len(),
                "dataset {} has duplicate values",
                dataset.name
            );
        }
        assert!(
            registry.total_values() > 20_000,
            "expected a large value pool, found {}",
            registry.total_values()
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let registry = ParamDatasets::builtin();
        let dataset = registry.get("tt:person_name").unwrap();
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(dataset.sample(&mut rng1), dataset.sample(&mut rng2));
        }
    }

    #[test]
    fn routing_by_type_and_name() {
        let registry = ParamDatasets::builtin();
        assert_eq!(
            registry
                .for_param(&Type::Entity("com.spotify:song".into()), "song")
                .unwrap()
                .name,
            "com.spotify:song"
        );
        assert_eq!(
            registry
                .for_param(&Type::String, "search_query")
                .unwrap()
                .name,
            "tt:search_query"
        );
        assert_eq!(
            registry.for_param(&Type::String, "caption").unwrap().name,
            "tt:caption"
        );
        assert_eq!(
            registry
                .for_param(&Type::PathName, "folder_name")
                .unwrap()
                .name,
            "tt:path_name"
        );
        assert_eq!(
            registry.for_param(&Type::EmailAddress, "to").unwrap().name,
            "tt:email_address"
        );
        assert_eq!(
            registry
                .for_param(&Type::String, "mystery_blob")
                .unwrap()
                .name,
            "tt:free_form_text"
        );
        assert_eq!(
            registry
                .for_param(&Type::Entity("com.unknown:thing".into()), "thing")
                .unwrap()
                .name,
            "tt:generic_entity"
        );
    }
}
