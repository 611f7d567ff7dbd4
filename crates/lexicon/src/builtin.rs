//! The built-in transportation-domain lexicon.
//!
//! Covers the vocabulary of the paper's Fig. 2 running example (carrier /
//! factory / transportation ontologies) plus common automotive synonyms,
//! so SKAT-style matchers can propose the bridges the paper's expert
//! confirms. This is the reproduction's substitute for consulting
//! WordNet (see ARCHITECTURE.md, `onion-lexicon`).

use crate::lexicon::Lexicon;

/// Builds the transportation-domain lexicon.
pub fn transport_lexicon() -> Lexicon {
    let mut l = Lexicon::new();

    // --- core vehicle taxonomy ------------------------------------------
    let conveyance =
        l.add_synset(["transportation", "transport", "conveyance"], Some("moving people or goods"));
    let vehicle = l.add_synset(["vehicle"], Some("a conveyance that transports"));
    let car = l.add_synset(
        ["car", "automobile", "auto", "passenger car", "motorcar"],
        Some("a motor vehicle with four wheels"),
    );
    let truck = l.add_synset(["truck", "lorry", "goods vehicle"], Some("carries cargo"));
    let suv = l.add_synset(["suv", "sport utility vehicle"], None);
    let carrier =
        l.add_synset(["carrier", "cargo carrier", "hauler"], Some("an entity that carries goods"));
    l.add_hypernym(vehicle, conveyance);
    l.add_hypernym(car, vehicle);
    l.add_hypernym(truck, vehicle);
    l.add_hypernym(suv, car);
    l.add_hypernym(truck, carrier);

    // --- goods & logistics ----------------------------------------------
    let goods = l.add_synset(["goods", "cargo", "freight", "merchandise"], None);
    let factory = l.add_synset(["factory", "plant", "manufactory", "works"], None);
    let organization = l.add_synset(["organization", "organisation"], None);
    l.add_hypernym(factory, organization);
    let _ = goods;

    // --- people -----------------------------------------------------------
    let person = l.add_synset(["person", "individual", "human"], None);
    let owner = l.add_synset(["owner", "possessor", "proprietor"], None);
    let driver = l.add_synset(["driver", "chauffeur", "operator"], None);
    let buyer = l.add_synset(["buyer", "purchaser", "customer", "client"], None);
    l.add_hypernym(owner, person);
    l.add_hypernym(driver, person);
    l.add_hypernym(buyer, person);

    // --- commerce ----------------------------------------------------------
    let price = l.add_synset(["price", "cost", "monetary value"], None);
    let money = l.add_synset(["money", "currency"], None);
    l.add_hypernym(price, money);
    let euro = l.add_synset(["euro"], Some("EU currency"));
    let guilder = l.add_synset(["dutch guilder", "guilder", "gulden", "nlg"], None);
    let sterling = l.add_synset(["pound sterling", "sterling", "gbp", "ps"], None);
    l.add_hypernym(euro, money);
    l.add_hypernym(guilder, money);
    l.add_hypernym(sterling, money);

    // --- misc attributes ----------------------------------------------------
    l.add_synset(["weight", "mass"], None);
    l.add_synset(["model", "make"], None);

    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_fig2_vocabulary() {
        let l = transport_lexicon();
        for term in [
            "Transportation",
            "Vehicle",
            "Car",
            "Trucks",
            "CargoCarrier",
            "Goods",
            "Price",
            "Owner",
            "Driver",
            "Buyer",
            "Person",
            "Factory",
            "SUV",
            "Weight",
            "Model",
            "PassengerCar",
        ] {
            assert!(l.contains(term), "lexicon should know {term:?}");
        }
    }

    #[test]
    fn key_synonym_pairs() {
        let l = transport_lexicon();
        assert!(l.are_synonyms("Car", "Automobile"));
        assert!(l.are_synonyms("Truck", "Lorry"));
        assert!(l.are_synonyms("Goods", "Cargo"));
        assert!(l.are_synonyms("Transportation", "Transport"));
        assert!(l.are_synonyms("PassengerCar", "Car"), "compound normalisation");
        assert!(l.are_synonyms("GoodsVehicle", "Truck"));
        assert!(!l.are_synonyms("Car", "Truck"));
    }

    #[test]
    fn key_hypernym_pairs() {
        let l = transport_lexicon();
        assert!(l.is_hypernym_of("Vehicle", "Car"));
        assert!(l.is_hypernym_of("Vehicle", "SUV"), "transitive through Car");
        assert!(l.is_hypernym_of("Transportation", "Truck"));
        assert!(l.is_hypernym_of("Person", "Driver"));
        assert!(l.is_hypernym_of("Money", "Euro"));
        assert!(!l.is_hypernym_of("Car", "Vehicle"));
    }

    #[test]
    fn currency_synonyms_for_functional_rules() {
        let l = transport_lexicon();
        assert!(l.are_synonyms("PS", "PoundSterling"));
        assert!(l.are_synonyms("DutchGuilders", "guilder"));
    }

    #[test]
    fn sibling_distance_small() {
        let l = transport_lexicon();
        let d = l.hypernym_distance("Car", "Truck").unwrap();
        assert_eq!(d, 2);
    }
}
